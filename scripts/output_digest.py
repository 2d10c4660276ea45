#!/usr/bin/env python3
"""One digest over the CLI's output on seeded gain tables, to compare trees.

Draws gain tables of three kinds in turn (monotone, non-monotone, and
tie-heavy with gains in {0, 1, 2}), with 1-12 prices and memory 1-7, and
runs ``solve``, ``oracle`` (with and without ``--horizon``, which is 1-24,
600 or 1001), ``tightness`` and ``reduce`` (on a cycle of 1-8 tokens) on each
through ``refcycle.cli.main``.  ``oracle`` and ``tightness`` run only where
the state graph has at most 20 000 edges.  Every fifth table also runs
``reduce`` on a cycle of 50-400 tokens.  Every twenty-fifth table also runs
the long windows: ``reduce`` on a cycle of 500-2000 tokens at memory 50-2000,
and ``oracle --horizon 1001`` on a 2-price table at memory 50-700, whose state
graph both the former guard, states x max(prices, memory), and the current
one, states x prices x memory, admit.  Every tenth table also runs one seeded
``simulate -> analyze -> allocate`` chain on a small memory-3 panel, with
``allocate`` at an unbounded, a drawn and an infeasible (zero) budget, and
then ``analyze`` and the drawn-budget ``allocate`` once more with the panel's
cache (the file ``refcycle.fileio.cache_path`` names) deleted, so they parse
the CSV; every fifth chain draws 300-600 customers over 15-30 days, a panel
that spans several of the CSV writer's blocks.  Each chain comes with
``analyze`` at windows 3, 5 and the longest, one day short of the horizon
(5-29 days), on a panel written here whose small-reference cells fill at every
window, which a uniform policy's panels leave empty beyond a few days.
Every fiftieth table, counting from the fiftieth, also runs ``simulate`` on
5 000-12 000 customers over 3-5 days and ``allocate`` on that panel at a
drawn, an unbounded and an infeasible (zero) budget, a table large enough
for the shadow-price search to start from its strided sample's bracket; no
smaller run reaches that path.
Prints the number of runs, a histogram of exit codes and one sha256 over
each run's command, exit code, stdout and ``refcycle:`` stderr lines, and
over the bytes of the files the chain writes (the panel CSV, its sidecar and
the assignments CSV); the run manifests, which hold timings, and the panel
cache, whose name and format differ between trees, are left out.

Tables, specs and the allocation model are drawn with numpy and written as
JSON here, so the inputs do not depend on the tree under test.  To compare
two trees, run the script once with each tree's ``src`` first on
``PYTHONPATH``:

    PYTHONPATH=<checkout>/src python3 scripts/output_digest.py --tables 250 --seed 0
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import tempfile
from collections import Counter

import numpy as np

from refcycle.cli import main as cli_main
from refcycle.fileio import cache_path

MAX_EDGES = 20_000
KINDS = ("monotone", "non-monotone", "tie-heavy")
CHAIN_EVERY = 10
LARGE_CHAIN_EVERY = 50
LARGE_ALLOCATION_EVERY = 50
LONG_CYCLE_EVERY = 5
LONG_WINDOW_EVERY = 25
DISCOUNTS = [0.12, 0.15, 0.17, 0.20]
# coupons of the written panel: its groups' values, values within 1e-9 of one and just outside
SMALL_DRAWS = [0.12, 0.15, 0.12 + 9e-10, 0.12 + 1.1e-9, 0.15 - 9e-10, 0.1]
ALL_DRAWS = SMALL_DRAWS + [0.17, 0.20, 0.20 - 9e-10, 0.17 - 1.1e-9]
# the planted memory-3 allocation model: baseline and sensitivity fall with the reference
MODEL = {
    "feature_names": ["emails_clicked_28d", "cart_views_3d", "cart_views_7d",
                      "avg_sale_discount_cart", "coupon_order_rate_hist", "coupon_order_rate_30d",
                      "coupon_order_rate_all", "avg_coupon_clicked_7d", "avg_coupon_clicked_30d",
                      "max_coupon_3d"],
    "alpha_weights": [2.0, 0.15, 0.1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -25.0],
    "beta_weights": [3.0, 4.0, 4.0, 25.0, 20.0, 20.0, 20.0, 40.0, 40.0, -120.0],
    "pivot": 0.15,
    "discounts": DISCOUNTS,
}


def gain_rows(rng: np.random.Generator, kind: str, n: int) -> list[list[float]]:
    if kind == "tie-heavy":
        return rng.integers(0, 3, size=(n, n)).astype(float).tolist()
    draws = rng.uniform(0.0, 1.0, size=(n, n))
    if kind == "monotone":
        draws.sort(axis=0)
    return draws.tolist()


def commands(rng: np.random.Generator, kind: str, long_cycle: bool) -> tuple[dict, list]:
    """One table, and the argument lists run on it, each with the files it
    writes and the files deleted before it: none.  ``long_cycle`` adds a
    ``reduce`` on 50-400 tokens."""
    n, memory = int(rng.integers(1, 13)), int(rng.integers(1, 8))
    prices = list(range(1, n + 1))
    table = {"prices": prices, "memory": memory, "gains": gain_rows(rng, kind, n)}
    cycle = rng.integers(1, n + 1, size=int(rng.integers(1, 9))).tolist()
    argv = [["solve", "--gains", "table.json"],
            ["reduce", "--gains", "table.json", "--cycle", " ".join(map(str, cycle))]]
    if math.comb(n + memory - 1, memory) * n <= MAX_EDGES:
        target = rng.permutation(prices)[:int(rng.integers(1, n + 1))].tolist()
        horizon = int(rng.choice([rng.integers(1, 25), 600, 1001]))
        argv += [["oracle", "--gains", "table.json"],
                 ["oracle", "--gains", "table.json", "--horizon", str(horizon)],
                 ["tightness", "--prices", " ".join(map(str, prices)), "--memory", str(memory),
                  "--target", " ".join(map(str, target))]]
    if long_cycle:
        tokens = rng.integers(1, n + 1, size=int(rng.integers(50, 401))).tolist()
        argv.append(["reduce", "--gains", "table.json", "--cycle", " ".join(map(str, tokens))])
    return {"table.json": table}, [(command, (), ()) for command in argv]


def long_windows(rng: np.random.Generator, kind: str) -> tuple[dict, list]:
    """A ``reduce`` on a 500-2000-token cycle at memory 50-2000, and an
    ``oracle`` replay of 1001 steps on a 2-price table at memory 50-700."""
    n, memory = int(rng.integers(1, 13)), int(rng.integers(50, 2001))
    wide = {"prices": list(range(1, n + 1)), "memory": memory, "gains": gain_rows(rng, kind, n)}
    tokens = rng.integers(1, n + 1, size=int(rng.integers(500, 2001))).tolist()
    pair = {"prices": [1, 2], "memory": int(rng.integers(50, 701)), "gains": gain_rows(rng, kind, 2)}
    return {"wide.json": wide, "pair.json": pair}, [
        (["reduce", "--gains", "wide.json", "--cycle", " ".join(map(str, tokens))], (), ()),
        (["oracle", "--gains", "pair.json", "--horizon", "1001"], (), ()),
    ]


def chain(rng: np.random.Generator, large: bool) -> tuple[dict, list]:
    """A seeded simulate -> analyze -> allocate chain: its input files, and
    the argument lists run, each with the files it writes and the files
    deleted before it.  ``large`` draws 300-600 customers over 15-30 days
    instead of 20-79 over 6-14."""
    if large:
        size, horizon = int(rng.integers(300, 601)), int(rng.integers(15, 31))
    else:
        size, horizon = int(rng.integers(20, 80)), int(rng.integers(6, 15))
    spec = {"population": size, "horizon": horizon, "memory": 3, "discounts": DISCOUNTS}
    allocate = ["allocate", "--model", "model.json", "--customers", "panel.csv", "--W", "10",
                "--budget"]
    seed, budget = str(int(rng.integers(1000))), repr(size * float(rng.uniform(0.15, 0.8)))
    analyze = ["analyze", "--dataset", "panel.csv", "--memory", "3,5"]
    return {"spec.json": spec, "model.json": MODEL}, [
        (["simulate", "--spec", "spec.json", "--seed", seed, "--out", "panel.csv"],
         ("panel.csv", "panel.csv.meta.json"), ()),
        (analyze, (), ()),
        *[(allocate + [b], ("assignments.csv",), ()) for b in ("1e9", budget, "0")],
        (analyze, (), (cache_path("panel.csv").name,)),
        (allocate + [budget], ("assignments.csv",), ()),
    ]


def large_allocation(rng: np.random.Generator) -> tuple[dict, list]:
    """A seeded simulate -> allocate chain on 5 000-12 000 customers over 3-5
    days, at a budget of 0.15-0.8 per customer, then at an unbounded budget
    (the early return) and at zero (exit 3): a table large enough that
    ``tune_lambda`` starts from a strided sample's bracket."""
    size, horizon = int(rng.integers(5000, 12001)), int(rng.integers(3, 6))
    spec = {"population": size, "horizon": horizon, "memory": 3, "discounts": DISCOUNTS}
    seed, budget = str(int(rng.integers(1000))), repr(size * float(rng.uniform(0.15, 0.8)))
    return {"large.json": spec, "model.json": MODEL}, [
        (["simulate", "--spec", "large.json", "--seed", seed, "--out", "large.csv"],
         ("large.csv", "large.csv.meta.json"), ()),
        *[(["allocate", "--model", "model.json", "--customers", "large.csv", "--W", "10",
            "--budget", b], ("assignments.csv",), ()) for b in (budget, "1e9", "0")],
    ]


def written_panel(rng: np.random.Generator) -> tuple[dict, list]:
    """A panel of 20-79 customers over 6-30 days in shuffled rows, and
    ``analyze`` at windows 3, 5 and the longest.  Half the customers get
    small coupons up to their last day, the others up to a drawn day, so a
    small trailing max occurs at every window."""
    size, horizon = int(rng.integers(20, 80)), int(rng.integers(6, 31))
    coupons = rng.choice(ALL_DRAWS, size=(size, horizon))
    small_until = np.where(rng.random(size) < 0.5, horizon - 1, rng.integers(0, horizon, size))
    early = np.arange(horizon) < small_until[:, None]
    coupons[early] = rng.choice(SMALL_DRAWS, size=int(early.sum()))
    bought = (rng.random((size, horizon)) < 0.3).astype(int)
    cells = [f"{c},{d + 1},0.0,{coupons[c, d].item()!r},{bought[c, d]}\n"
             for c, d in zip(*np.divmod(rng.permutation(size * horizon), horizon))]
    sidecar = {"feature_columns": ["f"], "reference_feature": "f", "discounts": DISCOUNTS,
               "memory": 3}
    return {"long.csv": "customer_id,day,f,coupon_value,purchased\n" + "".join(cells),
            "long.csv.meta.json": sidecar}, [
        (["analyze", "--dataset", "long.csv", "--memory", f"3,5,{horizon - 1}"], (), ())]


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:  # argparse refusals
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def file_bytes(name: str) -> bytes:
    """The file's bytes, or b"missing" when there is none."""
    try:
        with open(name, "rb") as handle:
            return handle.read()
    except FileNotFoundError:
        return b"missing"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--tables", type=int, default=250, help="gain tables to draw")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    digest, codes = hashlib.sha256(), Counter()
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # relative input names keep the outputs free of the temp path
        try:
            for i in range(args.tables):
                kind = KINDS[i % len(KINDS)]
                batches = [commands(rng, kind, i % LONG_CYCLE_EVERY == 0)]
                if i % LONG_WINDOW_EVERY == 0:
                    batches.append(long_windows(rng, kind))
                if i % CHAIN_EVERY == 0:
                    batches.append(chain(rng, i % LARGE_CHAIN_EVERY == 0))
                    batches.append(written_panel(rng))
                if i % LARGE_ALLOCATION_EVERY == LARGE_ALLOCATION_EVERY - 1:
                    batches.append(large_allocation(rng))
                for inputs, runs in batches:
                    for name, payload in inputs.items():
                        with open(name, "w") as handle:
                            if isinstance(payload, str):
                                handle.write(payload)
                            else:
                                json.dump(payload, handle)
                    for command, written, deleted in runs:
                        # a refused run must not leave an older file, and a run
                        # after its panel's cache is deleted parses the CSV
                        for name in (*written, *deleted):
                            with contextlib.suppress(FileNotFoundError):
                                os.remove(name)
                        code, out, err = run(command)
                        codes[code] += 1
                        notes = [line for line in err.splitlines() if line.startswith("refcycle:")]
                        digest.update(json.dumps([command, code, out, notes]).encode())
                        for name in written:
                            digest.update(file_bytes(name))
        finally:
            os.chdir(home)
    print(f"runs {sum(codes.values())}")
    for code in sorted(codes):
        print(f"exit {code}: {codes[code]}")
    print(f"sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
