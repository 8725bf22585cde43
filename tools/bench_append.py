#!/usr/bin/env python3
"""Appends one google-benchmark run to a committed benchmark history file.

The tracked BENCH_*.json files are append-only histories, not snapshots:
every `tools/run_bench.sh` invocation adds a timestamped, commit-keyed
record instead of overwriting the previous machine's numbers. Schema:

    {
      "schema": "dmx-bench-history-v1",
      "records": [
        {
          "commit":     "<git short sha the run was taken at>",
          "timestamp":  "<UTC ISO-8601>",
          "build_type": "<CMAKE_BUILD_TYPE of the OpenDMX tree>",
          "context":    <google-benchmark context object>,
          "benchmarks": <google-benchmark benchmarks array>
        },
        ...
      ]
    }

The host's core count is the context's "num_cpus"; the context's
"library_build_type" describes google-benchmark itself, not OpenDMX, so
"build_type" records the project's own build type (absent from records
appended before it existed).

A history file still holding a raw google-benchmark document (the
pre-history format: top-level "context"/"benchmarks") is migrated in
place — the raw run becomes the first record, keyed by its own context
date and the commit marker "pre-history".

Usage:
    bench_append.py --history BENCH_foo.json --run /tmp/foo.json \
        --commit abc1234 --timestamp 2026-08-09T12:00:00Z \
        --build-type RelWithDebInfo
    bench_append.py --history BENCH_foo.json --migrate-only
"""

import argparse
import json
import sys
from pathlib import Path

SCHEMA = "dmx-bench-history-v1"


def load_history(path):
    """Reads a history file, migrating the pre-history raw format."""
    if not path.exists():
        return {"schema": SCHEMA, "records": []}
    doc = json.loads(path.read_text(encoding="utf-8"))
    if doc.get("schema") == SCHEMA and isinstance(doc.get("records"), list):
        return doc
    if "benchmarks" in doc and "context" in doc:
        return {
            "schema": SCHEMA,
            "records": [{
                "commit": "pre-history",
                "timestamp": (doc.get("context") or {}).get("date", ""),
                "context": doc.get("context"),
                "benchmarks": doc.get("benchmarks"),
            }],
        }
    raise SystemExit(f"bench_append: {path} is neither a {SCHEMA} history "
                     "nor a raw google-benchmark document")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--history", type=Path, required=True,
                        help="committed BENCH_*.json history file")
    parser.add_argument("--run", type=Path,
                        help="raw google-benchmark JSON of one fresh run")
    parser.add_argument("--commit", default="unknown",
                        help="git short sha the run was taken at")
    parser.add_argument("--timestamp", default="",
                        help="UTC ISO-8601 time of the run")
    parser.add_argument("--build-type", default="",
                        help="CMAKE_BUILD_TYPE of the OpenDMX build measured")
    parser.add_argument("--migrate-only", action="store_true",
                        help="rewrite a pre-history file in place; no --run")
    args = parser.parse_args(argv)

    history = load_history(args.history)

    if args.migrate_only:
        if args.run is not None:
            parser.error("--migrate-only takes no --run")
    else:
        if args.run is None:
            parser.error("--run is required unless --migrate-only")
        run = json.loads(args.run.read_text(encoding="utf-8"))
        if "benchmarks" not in run:
            raise SystemExit(f"bench_append: {args.run} has no 'benchmarks' "
                             "array; is it google-benchmark JSON output?")
        history["records"].append({
            "commit": args.commit,
            "timestamp": args.timestamp,
            "build_type": args.build_type,
            "context": run.get("context"),
            "benchmarks": run["benchmarks"],
        })

    args.history.write_text(json.dumps(history, indent=1) + "\n",
                            encoding="utf-8")
    print(f"bench_append: {args.history} now holds "
          f"{len(history['records'])} record(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
