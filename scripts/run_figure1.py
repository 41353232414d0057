"""Run the diurnal two-user scenario and print its hourly allocation.

The cluster idles at 6 MW, draws 14 MW by day and 12 MW by night, and the
production user owns all resource allocation: it should come out at 12 MW
during the day and 9 MW at night, the batch user at 2 MW and 3 MW.
"""

import argparse

from carbonledger.check import run_end_to_end
from carbonledger.model import format_hour
from carbonledger.simulate import generate, preset_spec


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--machines", type=int, default=1, help="split the aggregate into N machines")
    args = parser.parse_args()

    bundle = generate(preset_spec("figure1", machine_count=args.machines))
    artifacts = run_end_to_end(bundle)
    final = artifacts.allocation.final

    total_wh = {key: idle + dynamic for key, idle, dynamic in final.rows()}
    users = sorted({user for user, _, _ in total_wh})
    print(f"{'hour':<17} " + " ".join(f"{u:>12}" for u in users) + f" {'total':>12}")
    for hour in sorted({h for _, _, h in total_wh}):
        values = [total_wh.get((u, "cluster-01", hour), 0.0) for u in users]
        print(
            f"{format_hour(hour):<17} "
            + " ".join(f"{v / 1e6:>10.2f}MW" for v in values)
            + f" {sum(values) / 1e6:>10.2f}MW"
        )
    print(f"\ntotal emissions: {artifacts.footprints.total_kg():,.1f} kgCO2e")


if __name__ == "__main__":
    main()
