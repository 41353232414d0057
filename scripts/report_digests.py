"""Print a SHA-256 for every report CSV of `carbonledger run`, per case and hash seed.

Each case is a `carbonledger simulate` bundle: every preset, plus a seeded
fleet (seed 5, 300 machines, cyclic economy, unbilled usage). For each
case and each hash seed, `simulate` and then `run` execute in child
processes under that `PYTHONHASHSEED`, against the sources of the
checkout holding this script. Run it on two checkouts and diff the
output to show that a change keeps the reports byte-identical:

    python scripts/report_digests.py > after.txt
    python scripts/report_digests.py --hash-seeds 0 3 > after-0-3.txt

Each output line is `<case> <hash seed> <report> <sha256>`. The exit
code is 1 if any child process fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from carbonledger.simulate import PRESETS  # noqa: E402

REPORTS = ("user_energy.csv", "emissions.csv", "footprint_report.csv", "flow_summary.csv")
CASES = {name: ["--preset", name] for name in PRESETS}
CASES["seed5-300-cyclic-unbilled"] = ["--seed", "5", "--machines", "300", "--cyclic-economy", "--unbilled-usage"]


def carbonledger(args: list[str], hash_seed: str) -> None:
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-m", "carbonledger.cli", *args], env=env, capture_output=True, text=True
    )
    if done.returncode != 0:
        raise RuntimeError(f"carbonledger {' '.join(args)} exited {done.returncode}: {done.stderr.strip()}")


def digests(options: list[str], hash_seed: str) -> dict[str, str]:
    with tempfile.TemporaryDirectory() as work:
        bundle, reports = Path(work) / "bundle", Path(work) / "reports"
        carbonledger(["simulate", "--output", str(bundle), *options], hash_seed)
        carbonledger(["run", "--input", str(bundle), "--output", str(reports)], hash_seed)
        return {name: hashlib.sha256((reports / name).read_bytes()).hexdigest() for name in REPORTS}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--hash-seeds", nargs="+", default=["0", "1", "42"], help="PYTHONHASHSEED values")
    args = parser.parse_args()
    failed = False
    for case, options in CASES.items():
        for hash_seed in args.hash_seeds:
            try:
                found = digests(options, hash_seed)
            except RuntimeError as exc:
                print(f"error: {case} under hash seed {hash_seed}: {exc}", file=sys.stderr)
                failed = True
                continue
            for name, digest in found.items():
                print(case, hash_seed, name, digest, flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
