"""Command-line entry point.

Subcommands: run (grid search into a record store, its settings given
as flags), report (CSV tables, PCA curve included, from a store),
compare (what two stores say differently), verify (property suite),
datasets (profiles, and where to get each real file not yet present).
report and compare read stores through bench.read_store and never
write them; only run, through RecordStore, cuts a torn last line.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import bench, datasets, verify
from .bench import RecordStore, RunSettings
from .errors import ConfigurationError, IngestionError, UsageError


def parse_feature_range(text: str) -> tuple:
    """"2..6" -> (2, 6); a single number means that one count."""
    parts = text.split("..")
    try:
        if len(parts) == 1:
            k = int(parts[0])
            return (k, k)
        if len(parts) == 2:
            return (int(parts[0]), int(parts[1]))
    except ValueError:
        pass
    raise UsageError(f"bad feature range {text!r}, expected N or LO..HI")


def _cmd_run(args) -> int:
    settings = RunSettings(master_seed=args.seed, qnn_epochs=args.qnn_epochs,
                           qnn_max_layers=args.qnn_max_layers)
    families = tuple(args.families.split(","))
    feature_range = (parse_feature_range(args.features)
                     if args.features else None)
    dataset, origin = datasets.resolve(args.dataset)
    print(f"dataset {args.dataset}: {dataset.n_rows} rows, "
          f"{dataset.n_features} features, "
          f"{dataset.positive_count()} positive ({origin})")
    store = RecordStore(args.store)
    if len(store):
        print(f"store {args.store}: {store.completed_cells()} completed "
              f"cells, resuming")

    def progress(record):
        tag = "meta" if record.val is None else f"val F1 {record.val.f1:.3f}"
        print(f"  k={record.k} {record.family} "
              f"{bench.canonical(record.config)} {tag}")

    new = bench.run_grid(args.dataset, dataset, store, settings,
                         families=families, feature_range=feature_range,
                         split_seed=args.split_seed, progress=progress)
    print(f"{len(new)} new records, store now {store.completed_cells()} "
          f"completed cells")
    return 0


def _cmd_report(args) -> int:
    if not os.path.exists(args.store):
        raise UsageError(f"store {args.store} does not exist")
    records, torn = bench.read_store(args.store)
    if torn:
        print(f"store {args.store}: skipped an unterminated last line of "
              f"{torn} bytes", file=sys.stderr)
    if not records:
        print(f"store {args.store} is empty", file=sys.stderr)
    # each dataset once, in the order first given
    names = list(dict.fromkeys(args.dataset)) if args.dataset else None
    held = {r.dataset for r in records}
    absent = sorted(set(names or ()) - held)
    if absent:
        raise UsageError(f"store {args.store} holds no {absent}, only "
                         f"{sorted(held)}")
    # a QNN record is gated by its dataset's profile
    unknown = sorted(held - set(datasets.PROFILES))
    if unknown:
        raise UsageError(f"store {args.store} holds datasets no profile "
                         f"names: {unknown}")
    files = bench.emit_reports(records, args.out, datasets=names)
    for f in files:
        print(f"wrote {f}")
    return 0


def _cmd_compare(args) -> int:
    """Prints bench.record_differences of two stores, then a line that
    counts them; exits 0 only when the two files are byte-equal. Reads
    the stores only, so a torn last line stays in its file and counts
    as a difference."""
    paths = (args.a, args.b)
    for path in paths:
        if not os.path.exists(path):
            raise UsageError(f"store {path} does not exist")
    (a, torn_a), (b, torn_b) = map(bench.read_store, paths)
    lines = bench.record_differences(a, b, sides=paths)
    for path, torn in zip(paths, (torn_a, torn_b)):
        if torn:
            lines.append(f"{path}: an unterminated last line of {torn} "
                         f"bytes")
    if not lines and Path(args.a).read_bytes() != Path(args.b).read_bytes():
        lines = ["every cell agrees, but the files differ in order or in "
                 "blank lines"]
    for line in lines:
        print(line)
    print(f"{len(lines)} differences: {args.a} ({len(a)} records) "
          f"vs {args.b} ({len(b)} records)")
    return 1 if lines else 0


def _cmd_verify(args) -> int:
    datasets.data_dir()     # refuses a bad data directory before any check
    results = verify.run_property_suite()
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        print(f"{mark}  {r.name:18s} {r.elapsed:7.2f}s  {r.detail}")
    return 0 if all(r.passed for r in results) else 1


def _cmd_datasets(args) -> int:
    directory = datasets.data_dir()
    print(f"data directory ({datasets.DATA_DIR_ENV}): "
          f"{directory or 'not set'}")
    for key, p in datasets.PROFILES.items():
        present = directory is not None and (directory / p.filename).exists()
        origin = ("real file present" if present
                  else "will use synthetic stand-in")
        print(f"\n{key}: {p.title}")
        print(f"  {p.n_rows} rows, {p.n_features} features, "
              f"{p.n_positive} positive; {origin}")
        if not present:
            print(datasets.fetch_instructions(key))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmlgrid",
        description="Quantum and classical model grid search on small "
                    "clinical tabular datasets.")
    sub = parser.add_subparsers(dest="command", required=True)

    defaults = RunSettings()
    p = sub.add_parser("run", help="run grid cells into a record store",
                       allow_abbrev=False)
    p.add_argument("--dataset", required=True)
    p.add_argument("--features", help="feature counts, e.g. 2..6 or 4")
    p.add_argument("--families", default="qnn,qsvm,classical")
    p.add_argument("--seed", type=int, default=defaults.master_seed,
                   help="master seed")
    p.add_argument("--split-seed", type=int, default=None,
                   help="split seed (defaults to the master seed)")
    p.add_argument("--qnn-epochs", type=int, default=defaults.qnn_epochs,
                   help="most epochs per QNN training")
    p.add_argument("--qnn-max-layers", type=int,
                   default=defaults.qnn_max_layers,
                   help="layer cap of QNN growth")
    p.add_argument("--store", default="records.jsonl")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("report", help="emit CSV tables from a record store",
                       allow_abbrev=False)
    p.add_argument("--store", default="records.jsonl")
    p.add_argument("--out", default="reports")
    p.add_argument("--dataset", action="append",
                   help="restrict to this dataset (repeatable)")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("compare", help="list the cells and fields in "
                       "which two record stores differ", allow_abbrev=False)
    p.add_argument("a", help="expected store")
    p.add_argument("b", help="actual store")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("verify", help="run the property suite",
                       allow_abbrev=False)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("datasets", help="list dataset profiles, with "
                       "download instructions for each file not present",
                       allow_abbrev=False)
    p.set_defaults(func=_cmd_datasets)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, IngestionError, ConfigurationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
