"""One `verify` unit: the full cross-verification suite in a fresh interpreter.

    python3 bench/suite.py SEED RESULT_JSON

Runs ``validate.run_all(seed=SEED)``, the suite ``asrrkit validate`` runs,
writes one record per check to RESULT_JSON and exits 2 if any check fails.
"""

import json
import sys

from asrrkit import validate


def run(seed: int, result_path: str) -> int:
    results = validate.run_all(seed=seed)
    with open(result_path, "w") as fh:
        json.dump([{"name": r.name, "passed": r.passed, "elapsed": r.elapsed,
                    "detail": r.detail} for r in results], fh)
    return 0 if all(r.passed for r in results) else 2


if __name__ == "__main__":
    sys.exit(run(int(sys.argv[1]), sys.argv[2]))
