"""Local simulation of the driver's correctness gate: run queries() and
oracle_sql() side-by-side over a sf dir and compare rows/schema/values.

Usage: python tests/driver_sim.py [sf_dir] [query ...]
"""

import sys

import duckdb
import numpy as np
import pandas as pd


def to_df(res):
    import pyarrow as pa

    if isinstance(res, pd.DataFrame):
        return res
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res.to_pandas()  # ray Dataset


def normalize(df):
    df = df[sorted(df.columns)].copy()
    sortable = [
        c for c in df.columns if not df[c].map(lambda v: isinstance(v, (list, dict, np.ndarray))).any()
    ]
    if sortable:
        df = df.sort_values(sortable).reset_index(drop=True)
    return df


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])
    import os

    import ray

    # Match the driver's parallelism (32) by default — a different
    # num_cpus gives a different block layout and has hidden real bugs
    # (round-3 bloom crash reproduced only at 32).
    ray.init(
        address="local",
        num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
        include_dashboard=False,
    )
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import __ray_entry__ as entry

    qs = entry.queries()
    oracles = entry.oracle_sql()
    con = duckdb.connect()
    for t in [
        "region", "nation", "customer", "supplier", "part", "orders",
        "lineitem", "events", "documents", "embeddings",
    ]:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )
    failures = n_ok = n_rows_only = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        try:
            got = normalize(to_df(fn(sf_dir)))
        except Exception as e:
            print(f"{name}: ENGINE ERROR {type(e).__name__}: {e}")
            failures += 1
            continue
        if name not in oracles:
            print(f"{name}: rows-only ({len(got)} rows)")
            n_rows_only += 1
            continue
        want = normalize(con.execute(oracles[name]).fetchdf())
        status = []
        if len(got) != len(want):
            status.append(f"ROWS {len(got)} vs {len(want)}")
        elif list(got.columns) != list(want.columns):
            status.append(f"SCHEMA {list(got.columns)} vs {list(want.columns)}")
        else:
            ok = True
            for c in got.columns:
                a, b = got[c].to_numpy(), want[c].to_numpy()
                if a.dtype.kind != b.dtype.kind and {a.dtype.kind, b.dtype.kind} <= {"f", "i", "u"}:
                    # The driver's value hash distinguishes 1 from 1.0 —
                    # a float/int kind mismatch hash-fails even when the
                    # values compare equal (round-3 events_sessions).
                    ok = False
                    status.append(f"DTYPE[{c}] {a.dtype} vs {b.dtype}")
                    continue
                if a.dtype.kind == "f" or b.dtype.kind == "f":
                    eq = np.array_equal(
                        a.astype(np.float64), b.astype(np.float64), equal_nan=True
                    )
                else:
                    eq = (pd.Series(a).fillna("\0") == pd.Series(b).fillna("\0")).all()
                if not eq:
                    ok = False
                    status.append(f"VALUES[{c}]")
            if ok:
                status = ["OK"]
        if status == ["OK"]:
            n_ok += 1
        else:
            failures += 1
        print(f"{name}: {' '.join(status)} ({len(got)} rows)")
    ray.shutdown()
    print(f"OK {n_ok} / rows-only {n_rows_only} / failed {failures}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
