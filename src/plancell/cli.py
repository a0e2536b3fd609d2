"""Command-line entry point for the whole pipeline.

Subcommands cover each stage: enumerate project plans, generate a solved
Blocksworld corpus, inspect and discretize datasets, train trees, classify
through the tree or the cellular engine, dump the compiled rule base, and
run cross-validated comparisons. Exit codes: 0 success, 2 usage, 3 bad
data, 4 bad model, 5 resource/limit.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
import tempfile

from . import blocksworld
from .casi import (classify_casi, compile_tree, format_fact_table,
                   format_incidence, format_rule_table, kb_from_json,
                   kb_to_json)
from .dataset import NUMERIC, UNKNOWN, class_distribution, load_csv, save_csv
from .discretize import MODES, DiscretizationMap, apply_map, fit_map
from .errors import DataError, LimitError, ModelError
from .evaluation import (ENGINES, cross_validate, evaluate_grid, label_cases,
                         report, report_csv)
from .plans import DEFAULT_MAX_PLANS, enumerate_plans, first_plan
from .project import parse_project
from .tree import (J48, REPTREE, classify_tree, induce, model_from_json,
                   model_to_json)


def _write_atomic(path: str, text: str) -> None:
    """Write via a temp file and rename, so readers never see a torn file.

    The file gets the mode open() would give it, not mkstemp's 0600. A
    failure names ``path``, not the temp file, which is removed.
    """
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".plancell-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                umask = os.umask(0)
                os.umask(umask)
                os.fchmod(fh.fileno(), 0o666 & ~umask)
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _read_text(path: str, undecodable=DataError) -> str:
    """A file's text, without a leading byte-order mark. An unreadable file
    is bad data; one that is not UTF-8 raises ``undecodable``."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise undecodable(f"cannot read {path}: {exc}") from exc


def _load_model_json(path: str) -> dict:
    try:
        return json.loads(_read_text(path, ModelError))
    except json.JSONDecodeError as exc:
        raise ModelError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ModelError(f"{path} nests too deeply") from None


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")


def _name_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _cv_spec(text: str) -> int:
    try:
        if text.startswith("cv"):
            return int(text[2:])
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected cvN (e.g. cv10), got {text!r}")


def _cmd_plans(args) -> int:
    graph = parse_project(_read_text(args.project), args.project)
    if args.first:
        plans, truncated = [first_plan(graph)], False
    else:
        result = enumerate_plans(graph, args.max_plans)
        plans, truncated = list(result.plans), result.truncated
    body = "".join(f"{p.id}: {'; '.join(p.steps)}\n" for p in plans)
    if args.out:
        _write_atomic(args.out, body)
    else:
        sys.stdout.write(body)
    if truncated:
        print(f"enumeration truncated at {args.max_plans} plans", file=sys.stderr)
        return 5
    return 0


def _cmd_bw_gen(args) -> int:
    ts = blocksworld.generate_corpus(args.sizes, args.per_size, args.seed,
                                     pool=args.pool, method=args.method)
    _write_atomic(args.out, save_csv(ts))
    print(f"wrote {len(ts)} instances ({len(ts.classes)} plan classes) to {args.out}")
    return 0


def _cmd_dataset_info(args) -> int:
    ts = load_csv(_read_text(args.input))
    print(f"instances: {len(ts)}")
    print(f"attributes: {len(ts.attributes)}")
    for spec in ts.attributes:
        if spec.kind == NUMERIC:
            print(f"  {spec.name}: numeric [{spec.domain[0]!r}, {spec.domain[1]!r}]")
        else:
            print(f"  {spec.name}: nominal ({len(spec.domain)} values)")
    print(f"classes: {len(ts.classes)}")
    counts = class_distribution(ts)
    for label in ts.classes:
        print(f"  {label}: {counts[label]}")
    return 0


def _cmd_discretize(args) -> int:
    ts = load_csv(_read_text(args.input))
    dmap = fit_map(ts, args.mode, args.bins)
    for name in sorted(dmap.cuts if dmap else ()):
        cuts = ", ".join(repr(c) for c in dmap.cuts[name])
        print(f"{name}: [{cuts}]")
    _write_atomic(args.out, save_csv(apply_map(dmap, ts)))
    return 0


def _cmd_train(args) -> int:
    ts = load_csv(_read_text(args.input))
    dmap = fit_map(ts, args.discretize, args.bins)
    ts = apply_map(dmap, ts)
    graph = induce(ts, args.mode, min_leaf=args.min_leaf, seed=args.seed,
                   discretization=dmap)
    _write_atomic(args.out, json.dumps(model_to_json(graph), indent=2) + "\n")
    print(f"trained {args.mode} model: {graph.node_count} nodes, "
          f"depth {graph.depth()}, written to {args.out}")
    return 0


def _cmd_classify(args) -> int:
    model = model_from_json(_load_model_json(args.model))
    cases = load_csv(_read_text(args.input))
    model_names = tuple(model.schema.index)
    if cases.attribute_names != model_names:
        raise DataError(f"case attributes {cases.attribute_names} do not match "
                        f"the model's {model_names}")
    binned = apply_map(model.schema.discretization or DiscretizationMap(), cases)
    kb = compile_tree(model) if args.casi else None

    def classify(values):
        if kb is not None:
            return classify_casi(kb, values)
        return classify_tree(model, values, fallback=args.fallback_majority)[0]

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")  # quotes only where needed
    writer.writerow(("index", "actual", "predicted"))
    hits = 0
    labels = label_cases(classify, binned)
    for i, (actual, predicted) in enumerate(zip(cases.labels, labels)):
        hits += predicted == actual
        writer.writerow((i, actual, UNKNOWN if predicted is None else predicted))
    body = out.getvalue()
    if args.out:
        _write_atomic(args.out, body)
    else:
        sys.stdout.write(body)
    print(f"{hits}/{len(cases)} cases match their recorded labels", file=sys.stderr)
    return 0


def _cmd_casi_dump(args) -> int:
    data = _load_model_json(args.model)
    if isinstance(data, dict) and data.get("format") == "cellular-kb":
        kb = kb_from_json(data)
    else:
        kb = compile_tree(model_from_json(data))
    print(f"facts: {kb.fact_count}  rules: {kb.rule_count}")
    print()
    print(format_fact_table(kb))
    print()
    print(format_rule_table(kb))
    print()
    print(format_incidence(kb))
    if args.out:
        _write_atomic(args.out, json.dumps(kb_to_json(kb), indent=2) + "\n")
    return 0


def _cmd_knn(args) -> int:
    ts = load_csv(_read_text(args.input))
    result = cross_validate(ts, "knn", args.mode, seed=args.seed,
                            folds=args.eval, k=args.k, bins=args.bins)
    print(f"knn (k={args.k}, {args.mode}, {args.eval}-fold): "
          f"{result.rate:.2f}% ({result.correct}/{result.total})")
    return 0


def _cmd_eval(args) -> int:
    ts = load_csv(_read_text(args.input))
    results = evaluate_grid(ts, args.methods, args.modes, seed=args.seed,
                            folds=args.folds, k=args.k, bins=args.bins,
                            min_leaf=args.min_leaf, engine=args.engine,
                            global_discretize=args.global_discretize)
    print(report(results))
    if args.out:
        _write_atomic(args.out, report_csv(results))
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plancell",
        description="Plan enumeration, tree induction, and cellular "
                    "rule-base classification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plans", help="enumerate plans of a project graph")
    p.add_argument("--project", required=True, help="project JSON file")
    p.add_argument("--max-plans", type=int, default=DEFAULT_MAX_PLANS)
    p.add_argument("--first", action="store_true",
                   help="print only one plan, found without full enumeration")
    p.add_argument("--out", help="write plan lines to a file instead of stdout")
    p.set_defaults(func=_cmd_plans)

    p = sub.add_parser("bw-gen", help="generate a solved Blocksworld corpus")
    p.add_argument("--sizes", type=_int_list, default=(4, 5, 6, 7),
                   help="comma-separated block counts (default 4,5,6,7)")
    p.add_argument("--per-size", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pool", type=int, default=5,
                   help="distinct problems per size to draw from; each is "
                        "solved once and its draws share the plan and the "
                        "measured time")
    p.add_argument("--method", choices=("greedy", "bfs"), default="greedy")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_bw_gen)

    p = sub.add_parser("dataset-info", help="summarize a dataset file")
    p.add_argument("--in", dest="input", required=True)
    p.set_defaults(func=_cmd_dataset_info)

    p = sub.add_parser("discretize", help="bin numeric attributes")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--mode", choices=("supervised", "unsupervised"),
                   default="supervised")
    p.add_argument("--bins", type=int, default=10,
                   help="bin count for the unsupervised mode")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_discretize)

    p = sub.add_parser("train", help="induce a decision tree model")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--mode", choices=(J48, REPTREE), default=J48)
    p.add_argument("--discretize", choices=MODES, default="supervised")
    p.add_argument("--bins", type=int, default=10)
    p.add_argument("--min-leaf", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("classify", help="classify cases with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="input", required=True)
    engine = p.add_mutually_exclusive_group()
    engine.add_argument("--casi", action="store_true",
                        help="infer through the cellular rule base")
    engine.add_argument("--fallback-majority", action="store_true",
                        help="route unseen values to the node majority "
                             "of the tree walk")
    p.add_argument("--out", help="write predictions CSV here")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("casi-dump", help="print the compiled cell layers")
    p.add_argument("--model", required=True,
                   help="tree model or cellular rule-base JSON")
    p.add_argument("--out", help="write the rule base as JSON")
    p.set_defaults(func=_cmd_casi_dump)

    p = sub.add_parser("knn", help="cross-validate the nearest-neighbor baseline")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--eval", type=_cv_spec, default=10,
                   help="cvN cross-validation spec (default cv10)")
    p.add_argument("--mode", choices=MODES, default="none")
    p.add_argument("--bins", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_knn)

    p = sub.add_parser("eval", help="cross-validate a methods x modes grid")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--methods", type=_name_list, default=(J48, REPTREE, "knn"))
    p.add_argument("--modes", type=_name_list,
                   default=("supervised", "unsupervised"))
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--bins", type=int, default=10)
    p.add_argument("--min-leaf", type=int, default=2)
    p.add_argument("--engine", choices=ENGINES, default="tree")
    p.add_argument("--global-discretize", action="store_true",
                   help="fit one discretization on all data instead of per fold")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the comparison table as CSV")
    p.set_defaults(func=_cmd_eval)
    return parser


def run(argv=None) -> int:
    """Parse and dispatch; returns the process exit code. The parser is
    built once per process; its defaults are immutable, so calls share it."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ModelError as exc:
        print(f"plancell: model error: {exc}", file=sys.stderr)
        return 4
    except LimitError as exc:
        print(f"plancell: limit exceeded: {exc}", file=sys.stderr)
        return 5
    except DataError as exc:
        print(f"plancell: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"plancell: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
