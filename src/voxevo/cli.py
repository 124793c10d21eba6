"""Experiment harness: evolve, retrain, crosseval, report, validate-body.

Every run writes into its own output directory: a manifest with the full
config and its fingerprint, the per-generation log CSV, a resumable
checkpoint, and the champion (body + controller) as JSON. ``evolve`` and
``retrain`` reach that directory by one path, ``run_to_dir``. Each setting
comes from its flag, else the --config file, else the command's default.
A frozen body is trained by ``retrain`` only, which reads its --body once
and passes the body on as a value; ``evolve`` refuses a config file that
names one (``freeze_body_path``). A retrain takes its morphology space
from its body and always trains the modular controller; every other
setting, ``generations`` included, is resolved like evolve's. The report
command aggregates champion fitness across run directories, compares
groups pairwise with the rank-sum test, and emits star-annotated tables
plus bootstrap-CI fitness curves.

Exit codes: 0 success, 2 configuration error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from collections import defaultdict
from dataclasses import replace

import numpy as np

from . import __version__, analysis
from .control import VARIANTS
from .evolution import ConfigError, RunConfig, RunResult, evolve, load_body_file
from .morphology import Morphology
from .sim_core import ENGINE_VERSION
from .terrain import ENVIRONMENTS, terrain_by_name

DESK_GENERATIONS = 300
PAPER_GENERATIONS = 10_000
PAPER_SEEDS = 10


def _parse_size(text: str) -> tuple[int, int]:
    try:
        h, w = text.lower().split("x")
        return int(h), int(w)
    except ValueError as exc:
        raise ConfigError(f"size must look like '5x5', got {text!r}") from exc


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
        raise ConfigError(f"cannot read config file {path}: {exc}")
    if not isinstance(data, dict):
        raise ConfigError("config file must contain a JSON object")
    return data


def config_from_args(args, retrained: Morphology | None = None) -> RunConfig:
    """The run's config: each field from its flag (an option whose dest is
    the field's name), else the config file, else RunConfig's default;
    ``generations`` falls back to the command's default instead. A run that
    retrains a body has its config adapted to the body before it is
    validated."""
    merged = _load_config_file(args.config)
    merged.update((k, v) for k, v in vars(args).items() if k in RunConfig.__dataclass_fields__ and v is not None)
    if getattr(args, "size", None) is not None:
        merged["height"], merged["width"] = _parse_size(args.size)
    if "generations" not in merged:
        merged["generations"] = PAPER_GENERATIONS if getattr(args, "paper_scale", False) else args.default_generations
    try:
        config = RunConfig.from_json(merged)
        if retrained is not None:
            config = analysis.retrain_config(config, retrained)
        config.validate()
    except (TypeError, ConfigError) as exc:
        raise ConfigError(str(exc))
    if config.output_dir is None:
        raise ConfigError("an output directory is required (--out)")
    return config


def _seed_list(args, config: RunConfig) -> list[int]:
    count = args.seeds
    if count is None:
        count = PAPER_SEEDS if args.paper_scale else 1
    if count < 1:
        raise ConfigError("--seeds must be >= 1")
    return list(range(config.seed, config.seed + count))


def run_to_dir(config: RunConfig, resume: bool, body: Morphology | None = None, provenance: dict | None = None) -> None:
    """The one path from a resolved config to its run directory, ``config.output_dir``.

    A run that trains a frozen body is given it as a value, with the
    provenance its manifest records. A finished directory is refused unless
    resuming. The directory is made by the run's first checkpoint or by its
    record, so a run refused before it starts leaves none behind.
    """
    out_dir = config.output_dir
    if os.path.exists(os.path.join(out_dir, "generations.csv")) and not resume:
        raise ConfigError(f"{out_dir} already holds a finished run; use --resume or a new directory")
    result = evolve(config, frozen_body=body, checkpoint_path=os.path.join(out_dir, "checkpoint.json"), resume=resume)
    write_run_outputs(result, out_dir, manifest_extra=provenance)
    print(
        f"{group_label(result)} seed {config.seed}: champion fitness "
        f"{result.champion.fitness:.4f} after {config.generations} generations -> {out_dir}"
    )


def group_label(result: RunResult) -> str:
    """The report's group: setting and controller, ``-retrained`` when the
    run trained a frozen body."""
    label = f"{result.config.setting_name()}-{result.config.controller}"
    return label if result.frozen_body is None else label + "-retrained"


def write_run_outputs(result: RunResult, out_dir: str, manifest_extra: dict | None = None) -> None:
    os.makedirs(out_dir, exist_ok=True)
    config = result.config
    manifest = {
        "software": "voxevo",
        "version": __version__,
        "engine_version": ENGINE_VERSION,
        "setting": config.setting_name(),
        "group_label": group_label(result),
        "fingerprint": result.fingerprint,
        "seed": config.seed,
        "config": config.to_json(),
    }
    if manifest_extra:
        manifest.update(manifest_extra)
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2)
    champion = {
        "run_id": f"{result.fingerprint[:12]}-s{config.seed}",
        "fitness": result.champion.fitness,
        "age": result.champion.age,
        "morphology": result.champion.morphology.to_json(),
        "controller": result.champion.controller.to_json(),
    }
    with open(os.path.join(out_dir, "champion.json"), "w") as fh:
        fh.write(json.dumps(champion))  # the C encoder; json.dump's bytes
    # last, as it marks the run finished, and whole: a write cut short leaves none
    path = os.path.join(out_dir, "generations.csv")
    tmp = f"{path}.tmp"
    with open(tmp, "w", newline="") as fh:
        fh.write("generation,best_fitness,mean_fitness,best_age,champion_id\n")
        for s in result.stats:
            fh.write(f"{s.generation},{s.best_fitness!r},{s.mean_fitness!r},{s.best_age},{s.champion_id}\n")
    os.replace(tmp, path)


def _load_run_dir(run_dir: str) -> dict:
    try:
        with open(os.path.join(run_dir, "manifest.json")) as fh:
            manifest = json.load(fh)
        with open(os.path.join(run_dir, "champion.json")) as fh:
            champion = json.load(fh)
        for name, data in (("manifest.json", manifest), ("champion.json", champion)):
            if not isinstance(data, dict):
                raise ConfigError(f"cannot read run directory {run_dir}: {name} does not hold a JSON object")
        with open(os.path.join(run_dir, "generations.csv")) as fh:
            best = [float(row["best_fitness"]) for row in csv.DictReader(fh)]
        return {
            "dir": run_dir,
            "group": manifest.get("group_label", manifest["setting"]),
            "seed": manifest.get("seed", manifest["config"].get("seed")),
            "champion_fitness": champion["fitness"],
            "champion_body": Morphology.from_json(champion["morphology"]),
            "best_curve": np.array(best),
        }
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:  # JSONDecodeError is a ValueError
        raise ConfigError(f"cannot read run directory {run_dir}: {type(exc).__name__}: {exc}")


def cmd_evolve(args) -> int:
    config = config_from_args(args)
    if config.freeze_body_path is not None:
        raise ConfigError(f"evolve trains no frozen body ({config.freeze_body_path}): use `voxevo retrain --body BODY`")
    seeds = _seed_list(args, config)
    for seed in seeds:
        out_dir = os.path.join(config.output_dir, f"seed_{seed}") if len(seeds) > 1 else config.output_dir
        run_to_dir(replace(config, seed=seed, output_dir=out_dir), args.resume)
    return 0


def cmd_retrain(args) -> int:
    body, run_id = load_body_file(args.freeze_body_path)
    config = config_from_args(args, retrained=body)
    run_to_dir(config, args.resume, body, {"source_body": args.freeze_body_path, "source_run_id": run_id})
    return 0


def cmd_crosseval(args) -> int:
    body, _ = load_body_file(args.body)
    try:
        terrain = terrain_by_name(args.env, (body.h, body.w))
    except ValueError as exc:  # the body does not fit the terrain
        raise ConfigError(str(exc))
    result = analysis.cross_evaluate_fixed(body, terrain)
    print(json.dumps(result.to_json(), indent=2))
    print(f"fixed-controller fitness: {result.fitness:.4f}")
    if args.out is not None:
        with open(args.out, "w") as fh:
            json.dump(result.to_json(), fh, indent=2)
    return 0


def cmd_report(args) -> int:
    if args.bootstrap < 1:
        raise ConfigError("--bootstrap must be >= 1")
    if len(args.run_dirs) < 2:
        raise ConfigError("report needs at least two run directories")
    runs = [_load_run_dir(d) for d in args.run_dirs]
    groups: dict[str, list[dict]] = defaultdict(list)
    for run in runs:
        groups[run["group"]].append(run)
    if len(groups) < 2:
        raise ConfigError("report needs at least two distinct run groups")
    for label, group in groups.items():  # checked before any file is written
        shapes = {(run["champion_body"].h, run["champion_body"].w) for run in group}
        if len(shapes) > 1:
            raise ConfigError(f"group {label} mixes morphology spaces {sorted(shapes)}; distances are undefined")
    os.makedirs(args.out, exist_ok=True)

    labels = sorted(groups)
    _write_champions_csv(groups, labels, os.path.join(args.out, "champions.csv"))
    reports = _write_comparison_csv(groups, labels, os.path.join(args.out, "comparison.csv"))
    curves = _write_curves_csv(groups, labels, os.path.join(args.out, "curves.csv"), args.bootstrap)
    distances = _write_distances(groups, labels, args.out)
    _write_svg_curves(curves, os.path.join(args.out, "curves.svg"))
    _write_text_summary(groups, labels, reports, distances, os.path.join(args.out, "report.txt"))
    print(f"report written to {args.out}")
    return 0


def _write_champions_csv(groups, labels, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["group", "run_dir", "seed", "champion_fitness"])
        for label in labels:
            for run in groups[label]:
                writer.writerow([label, run["dir"], run["seed"], repr(run["champion_fitness"])])


def _write_comparison_csv(groups, labels, path) -> list:
    reports = []
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["group_a", "group_b", "n_a", "n_b", "mean_a", "mean_b", "u_statistic", "p_value", "stars", "method"]
        )
        for i, la in enumerate(labels):
            for lb in labels[i + 1 :]:
                fa = [r["champion_fitness"] for r in groups[la]]
                fb = [r["champion_fitness"] for r in groups[lb]]
                rep = analysis.rank_sum_test(fa, fb, labels=(la, lb))
                reports.append(rep)
                writer.writerow(
                    [
                        la,
                        lb,
                        len(fa),
                        len(fb),
                        repr(float(np.mean(fa))),
                        repr(float(np.mean(fb))),
                        repr(rep.u_statistic),
                        repr(rep.p_value),
                        rep.stars,
                        rep.method,
                    ]
                )
    return reports


def _write_curves_csv(groups, labels, path, n_resamples: int) -> dict:
    curves = {}
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["group", "generation", "mean_best", "ci_lo", "ci_hi"])
        for label in labels:
            runs = groups[label]
            length = min(len(r["best_curve"]) for r in runs)
            stack = np.stack([np.maximum.accumulate(r["best_curve"][:length]) for r in runs])
            mean, lo, hi = analysis.bootstrap_mean_ci(stack, n_resamples=n_resamples)
            curves[label] = (mean, lo, hi)
            for g in range(length):
                writer.writerow([label, g, repr(float(mean[g])), repr(float(lo[g])), repr(float(hi[g]))])
    return curves


def _write_distances(groups, labels, out_dir) -> dict:
    distances = {}
    for label in labels:
        runs = groups[label]
        if len(runs) >= 2:
            matrix = analysis.export_distance_matrix(
                [run["champion_body"] for run in runs],
                [f"seed_{r['seed']}" for r in runs],
                os.path.join(out_dir, f"distance_matrix_{label}.csv"),
            )
            distances[label] = analysis.mean_pair_distance(matrix)
    with open(os.path.join(out_dir, "distances.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["group", "n", "intra_cluster_distance"])
        for label in labels:
            if label in distances:
                writer.writerow([label, len(groups[label]), repr(distances[label])])
    return distances


def _write_text_summary(groups, labels, reports, distances, path) -> None:
    lines = ["run comparison", "=" * 14, ""]
    for label in labels:
        fits = np.array([r["champion_fitness"] for r in groups[label]])
        lines.append(
            f"{label}: n={fits.size} mean={fits.mean():.4f} median={np.median(fits):.4f} "
            f"min={fits.min():.4f} max={fits.max():.4f}"
        )
        if label in distances:
            lines.append(f"    intra-cluster body distance: {distances[label]:.4f}")
    lines.append("")
    lines.append("pairwise rank-sum tests (two-sided):")
    for rep in reports:
        lines.append(
            f"  {rep.label_a} vs {rep.label_b}: U={rep.u_statistic:.1f} "
            f"p={rep.p_value:.6f} {rep.stars or 'n.s.'} [{rep.method}]"
        )
    lines.append("")
    lines.append("stars: *** p<0.001, ** p<0.005, * p<0.05")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_svg_curves(curves: dict, path) -> None:
    """Minimal polyline plot of mean best fitness with CI bands."""
    width, height, margin = 720, 420, 50
    palette = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
    all_vals = np.concatenate([np.concatenate([m, lo, hi]) for m, lo, hi in curves.values()])
    y_min, y_max = float(all_vals.min()), float(all_vals.max())
    if y_max - y_min < 1e-9:
        y_max = y_min + 1.0
    x_max = max(len(m) for m, _, _ in curves.values()) - 1
    x_max = max(x_max, 1)

    def sx(g):
        return margin + (width - 2 * margin) * g / x_max

    def sy(v):
        return height - margin - (height - 2 * margin) * (v - y_min) / (y_max - y_min)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
        f'<text x="{width / 2}" y="{height - 12}" text-anchor="middle" font-size="12">generation</text>',
        f'<text x="14" y="{height / 2}" font-size="12" transform="rotate(-90 14 {height / 2})" '
        f'text-anchor="middle">best fitness</text>',
        f'<text x="{margin - 6}" y="{height - margin + 4}" text-anchor="end" font-size="10">{y_min:.2f}</text>',
        f'<text x="{margin - 6}" y="{margin + 4}" text-anchor="end" font-size="10">{y_max:.2f}</text>',
    ]
    for idx, (label, (mean, lo, hi)) in enumerate(sorted(curves.items())):
        color = palette[idx % len(palette)]
        xs = np.arange(len(mean))
        band = (
            " ".join(f"{sx(g):.2f},{sy(v):.2f}" for g, v in zip(xs, hi))
            + " "
            + " ".join(f"{sx(g):.2f},{sy(v):.2f}" for g, v in zip(xs[::-1], lo[::-1]))
        )
        line = " ".join(f"{sx(g):.2f},{sy(v):.2f}" for g, v in zip(xs, mean))
        parts.append(f'<polygon points="{band}" fill="{color}" opacity="0.15"/>')
        parts.append(f'<polyline points="{line}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(
            f'<text x="{width - margin + 4}" y="{margin + 14 * idx + 10}" font-size="11" '
            f'fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))


def cmd_validate_body(args) -> int:
    body, _ = load_body_file(args.body)
    note = "" if body.is_canonical_size else " (non-canonical size)"
    print(f"valid {body.h}x{body.w} body{note}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="voxevo", description=__doc__)
    parser.add_argument("--version", action="version", version=f"voxevo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_options(p):
        # a dest named after a RunConfig field sets that field
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--env", dest="environment", choices=ENVIRONMENTS)
        p.add_argument(
            "--gens", dest="generations", type=int, metavar="N",
            help="generations to run (default: the config file's, else the command's)",
        )
        p.add_argument("--pop", dest="population_size", type=int, metavar="N", help="population size (default 16)")
        p.add_argument("--seed", type=int, help="base random seed (default 0)")
        p.add_argument("--checkpoint-interval", type=int)
        p.add_argument("--out", dest="output_dir", metavar="DIR", help="output directory")
        p.add_argument("--resume", action="store_true", help="continue from the checkpoint in --out")

    p_evolve = sub.add_parser(
        "evolve", help="run brain-body (or body-only) evolution; `voxevo retrain` trains a frozen body"
    )
    add_run_options(p_evolve)
    p_evolve.add_argument("--size", help="morphology space, e.g. 5x5 or 7x7")
    p_evolve.add_argument("--controller", choices=VARIANTS)
    p_evolve.add_argument("--paper-scale", action="store_true", help="full-scale defaults: 10000 generations, 10 seeds")
    p_evolve.add_argument("--seeds", type=int, help="number of consecutive seeds to run (default 1)")
    p_evolve.set_defaults(func=cmd_evolve, default_generations=DESK_GENERATIONS)

    p_retrain = sub.add_parser(
        "retrain",
        help="optimize a fresh modular controller for a frozen body (the only command that freezes one)",
        description="Optimize a fresh modular controller for the body in --body, the one way to train "
        "a frozen body. The run takes its "
        "morphology space from the body and always trains the modular controller; every other "
        "setting comes from its flag, else the --config file (generations included), else the "
        f"default ({analysis.RETRAIN_GENERATIONS} generations).",
    )
    add_run_options(p_retrain)
    p_retrain.add_argument(
        "--body", dest="freeze_body_path", metavar="BODY", required=True, help="morphology or champion JSON file"
    )
    p_retrain.set_defaults(func=cmd_retrain, default_generations=analysis.RETRAIN_GENERATIONS)

    p_cross = sub.add_parser("crosseval", help="score a body under the fixed controller")
    p_cross.add_argument("--body", required=True)
    p_cross.add_argument("--env", choices=ENVIRONMENTS, default="walker")
    p_cross.add_argument("--out", help="optional JSON output file")
    p_cross.set_defaults(func=cmd_crosseval)

    p_report = sub.add_parser("report", help="compare groups of finished runs")
    p_report.add_argument("run_dirs", nargs="+", help="run output directories")
    p_report.add_argument("--out", required=True, help="report output directory")
    p_report.add_argument("--bootstrap", type=int, default=analysis.BOOTSTRAP_RESAMPLES)
    p_report.set_defaults(func=cmd_report)

    p_val = sub.add_parser("validate-body", help="check a body JSON against the validity rules")
    p_val.add_argument("--body", required=True)
    p_val.set_defaults(func=cmd_validate_body)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 3
    except Exception as exc:  # runtime failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
