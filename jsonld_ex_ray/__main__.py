"""CLI entry point — the `ray job submit` launch surface (SURVEY.md §4).

    python -m jsonld_ex_ray build --input repos.parquet [repos2.parquet ...] \
        --out /data/kg_out [--shard-size 4]
    python -m jsonld_ex_ray nquads --out /data/kg_out --nq /data/kg.nq
    python -m jsonld_ex_ray frame --out /data/kg_out --frame frame.json \
        --framed /data/kg_framed
    python -m jsonld_ex_ray stats --out /data/kg_out

`build` is resumable: re-running after a kill skips shards recorded done in
<out>/_state/manifest.jsonl. Owns its Ray session (the only places allowed
to: this CLI, bench.py, and the test fixture).
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="jsonld_ex_ray")
    sub = parser.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build", help="source-repo parquet → checkpointed triple shards")
    b.add_argument("--input", nargs="+", required=True)
    b.add_argument("--out", required=True)
    b.add_argument("--shard-size", type=int, default=1)
    b.add_argument("--num-cpus", type=int, default=None)

    n = sub.add_parser("nquads", help="export a checkpointed run as N-Quads shards")
    n.add_argument("--out", required=True, help="the build output dir")
    n.add_argument("--nq", required=True, help="target directory for .nq shards")
    n.add_argument("--num-cpus", type=int, default=None)

    f = sub.add_parser(
        "full", help="complete KG run: extract→triples→canonicalize→dedup→materialize"
    )
    f.add_argument("--input", nargs="+", required=True)
    f.add_argument("--out", required=True)
    f.add_argument("--num-cpus", type=int, default=None)

    fr = sub.add_parser(
        "frame", help="reconstruct JSON-LD docs per graph and apply a JSON-LD frame"
    )
    fr.add_argument("--out", required=True, help="the build output dir (triples)")
    fr.add_argument("--frame", required=True, help="path to the frame JSON document")
    fr.add_argument("--framed", required=True, help="target dir for framed parquet")
    fr.add_argument("--num-cpus", type=int, default=None)

    s = sub.add_parser("stats", help="print a checkpointed run's metrics")
    s.add_argument("--out", required=True)

    args = parser.parse_args(argv)

    if args.cmd == "stats":
        import pyarrow.parquet as pq

        t = pq.read_table(f"{args.out}/_state/metrics.parquet")
        print(json.dumps(t.to_pylist(), indent=1))
        return 0

    import ray

    if not ray.is_initialized():
        kwargs = {"include_dashboard": False}
        if args.num_cpus:
            kwargs["num_cpus"] = args.num_cpus
        ray.init(address="local", **kwargs)
    try:
        if args.cmd == "build":
            from .pipeline import run_checkpointed

            metrics = run_checkpointed(args.input, args.out, shard_size=args.shard_size)
            print(json.dumps(metrics))
        elif args.cmd == "full":
            from .pipelines import full_kg_run

            metrics = full_kg_run(
                args.input if len(args.input) > 1 else args.input[0], args.out
            )
            print(json.dumps(metrics))
        elif args.cmd == "nquads":
            from .pipeline import read_triples
            from .sources import write_nquads

            write_nquads(read_triples(args.out), args.nq)
            print(json.dumps({"status": "written", "dir": args.nq}))
        elif args.cmd == "frame":
            from .pipeline import frame_docs, read_triples, triples_to_jsonld

            with open(args.frame) as fh:
                frame_doc = json.load(fh)
            docs = triples_to_jsonld(read_triples(args.out))
            frame_docs(docs, frame_doc).write_parquet(args.framed)
            print(json.dumps({"status": "written", "dir": args.framed}))
    finally:
        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
