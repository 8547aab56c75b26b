"""Regenerate reference.json: canary fingerprints and the search digest.

Run only on a commit whose outputs are known good (the reference was made
on the initial library); a later change that alters outputs on purpose must
say so when it regenerates this file.

    python3 perfbench/make_reference.py
"""

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402
from tsmamba import discontinuity  # noqa: E402


def sr_fingerprint(wl):
    wl.setup()
    return [float(v) for v in workloads.fingerprint(wl.canary_output())]


def main():
    csv = discontinuity.search_to_csv(discontinuity.search_procedures(8, 4))
    reference = {
        "about": "Outputs of the fixed canary inputs (CANARY_SEED) and of "
                 "search_procedures(8, 4); SR fingerprints are 16x16 block "
                 "means per channel, compared with FINGERPRINT_ATOL.",
        "stream": {"fingerprint": sr_fingerprint(workloads.Stream())},
        "keyframe": {"fingerprint": sr_fingerprint(workloads.Keyframe())},
        "disc_search": {"csv_sha256": hashlib.sha256(csv.encode()).hexdigest(),
                        "procedures": csv.count("\n") - 1},
    }
    workloads.REFERENCE_PATH.write_text(json.dumps(reference) + "\n")


if __name__ == "__main__":
    main()
