"""Print a SHA-256 for every report CSV of `carbonledger run`, per case and hash seed.

Each case is a `carbonledger simulate` bundle and the options its
`carbonledger run` gets: every preset, a seeded fleet (seed 5, 300
machines, cyclic economy, unbilled usage), the same fleet over 48 h run
on its first day only (`--start/--end`) and on its second day only
(`--start` alone), a seed-3 fleet (100 machines,
30 users, 4 clusters, 12 h), the benchmark's cli-1k shape (seed 7,
1000 machines, 50 users, 20 clusters, 12 h), a many-user fleet (seed 7,
200 machines, 500 users, 20 clusters, 12 h) whose hundreds of providers
exercise the footprint stage's per-month grouping, and `sankey-small` and the
seed-5 fleet again with `--round-wh 0 --round-g 0`, so that their reports
carry every float bit rather than whole Wh and grams, and once more with
`--rounds 3` as well, so that a third minor round is covered. One more
unrounded seed-5 fleet (40 machines, 720 h) runs from June into July, so
that footprints are grouped over two billing months, and a deeper
economy (seed 5, 300 machines, 12 users, `--economy-depth 4`, cyclic,
unbilled usage) runs unrounded over three minor rounds, so that more
providers pay out each day and more chains of them resolve. For each case and
each hash seed, `simulate` and then `run` execute in child processes
under that `PYTHONHASHSEED`, against the package sources under `--src`
(default: this checkout's `src`). Run it against two source trees and diff
the output to show that a change keeps the bundles and reports
byte-identical:

    git worktree add ../parent HEAD~1
    python scripts/report_digests.py --src ../parent/src > before.txt
    python scripts/report_digests.py > after.txt
    python scripts/report_digests.py --hash-seeds 3 7 > after-3-7.txt

Each output line is `<case> <hash seed> <report> <sha256>`. After a
case's reports comes one line per distinct SHA-256 of its bundle's
`manifest.json` (which holds the SHA-256 of every bundle table), with the
hash seeds that gave it joined by commas. The exit code is 1 if any child
process fails.
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

from carbonledger.cli import REPORTS  # noqa: E402
from carbonledger.simulate import PRESETS  # noqa: E402

SEED5 = ["--seed", "5", "--machines", "300", "--cyclic-economy", "--unbilled-usage"]
#: case → (simulate options, run options)
CASES = {name: (["--preset", name], []) for name in PRESETS}
CASES["seed5-300-cyclic-unbilled"] = (SEED5, [])
CASES["seed5-300-48h-first-day"] = ([*SEED5, "--hours", "48"], ["--start", "2023-06-05", "--end", "2023-06-06"])
CASES["seed5-300-48h-second-day"] = ([*SEED5, "--hours", "48"], ["--start", "2023-06-06"])
CASES["seed3-100-12h"] = (["--seed", "3", "--machines", "100", "--users", "30", "--clusters", "4", "--hours", "12"], [])
CASES["cli-1k-seed7"] = (["--seed", "7", "--machines", "1000", "--users", "50", "--clusters", "20", "--hours", "12"], [])
CASES["seed7-200-500-users"] = (
    ["--seed", "7", "--machines", "200", "--users", "500", "--clusters", "20", "--hours", "12"], []
)
UNROUNDED = ["--round-wh", "0", "--round-g", "0"]
CASES["sankey-small-unrounded"] = (["--preset", "sankey-small"], UNROUNDED)
CASES["seed5-300-cyclic-unbilled-unrounded"] = (SEED5, UNROUNDED)
CASES["sankey-small-3-rounds"] = (["--preset", "sankey-small"], ["--rounds", "3", *UNROUNDED])
CASES["seed5-300-cyclic-unbilled-3-rounds"] = (SEED5, ["--rounds", "3", *UNROUNDED])
CASES["seed5-40-720h-two-months"] = (
    ["--seed", "5", "--machines", "40", "--hours", "720", "--cyclic-economy", "--unbilled-usage"], UNROUNDED
)
CASES["seed5-300-12-users-depth-4-3-rounds"] = (
    [*SEED5, "--users", "12", "--economy-depth", "4"], ["--rounds", "3", *UNROUNDED]
)
MANIFEST = "manifest.json"


def carbonledger(args: list[str], hash_seed: str, src: Path) -> None:
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-m", "carbonledger.cli", *args], env=env, capture_output=True, text=True
    )
    if done.returncode != 0:
        raise RuntimeError(f"carbonledger {' '.join(args)} exited {done.returncode}: {done.stderr.strip()}")


def digests(simulate: list[str], run: list[str], hash_seed: str, src: Path) -> dict[str, str]:
    with tempfile.TemporaryDirectory() as work:
        bundle, reports = Path(work) / "bundle", Path(work) / "reports"
        carbonledger(["simulate", "--output", str(bundle), *simulate], hash_seed, src)
        carbonledger(["run", "--input", str(bundle), "--output", str(reports), *run], hash_seed, src)
        found = {name: hashlib.sha256((reports / name).read_bytes()).hexdigest() for name in REPORTS}
        found[MANIFEST] = hashlib.sha256((bundle / MANIFEST).read_bytes()).hexdigest()
        return found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--hash-seeds", nargs="+", default=["0", "1", "42"], help="PYTHONHASHSEED values")
    parser.add_argument(
        "--src", type=Path, default=SRC, help="directory holding the carbonledger package to run (default: %(default)s)"
    )
    args = parser.parse_args()
    src = args.src.resolve()
    if not (src / "carbonledger" / "__init__.py").is_file():
        parser.error(f"no carbonledger package under {src}")
    failed = False
    for case, (simulate, run) in CASES.items():
        manifests: dict[str, list[str]] = {}
        for hash_seed in args.hash_seeds:
            try:
                found = digests(simulate, run, hash_seed, src)
            except RuntimeError as exc:
                print(f"error: {case} under hash seed {hash_seed}: {exc}", file=sys.stderr)
                failed = True
                continue
            manifests.setdefault(found.pop(MANIFEST), []).append(hash_seed)
            for name, digest in found.items():
                print(case, hash_seed, name, digest, flush=True)
        for digest, hash_seeds in manifests.items():
            print(case, ",".join(hash_seeds), MANIFEST, digest, flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
