"""Pipeline command line.

Subcommands: synth (generate a synthetic scene directory), match (broad plus
narrow matching from keypoint files), cluster (dendrogram report), sam (full
reconstruction), eval (score a model against the generating scene).  Errors
are reported as one JSON object on stderr with a nonzero exit code.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import clustering, engine, fileio, graph, synthetic
from .tracks import TrackSet


class CliError(Exception):
    def __init__(self, message, code=2):
        super().__init__(message)
        self.code = code


def _add_config_flags(parser):
    parser.add_argument("--config", help="pipeline config file")
    for f in dataclasses.fields(fileio.PipelineConfig):
        flag = "--" + f.name.replace("_", "-")
        parser.add_argument(flag, dest=f.name, default=None)


def _load_config(args) -> fileio.PipelineConfig:
    """The config file's values, overridden by HSFM_<NAME> variables, in turn
    overridden by flags; all three pass the same parse and domain check."""
    config = (
        fileio.read_config(args.config) if args.config else fileio.PipelineConfig()
    )
    flags = [
        ("--" + f.name.replace("_", "-"), None, f.name, getattr(args, f.name))
        for f in dataclasses.fields(fileio.PipelineConfig)
        if getattr(args, f.name, None) is not None
    ]
    return config.apply_env(os.environ).override(flags)


def _require_dir(path, what):
    if not path or not os.path.isdir(path):
        raise CliError(f"{what} directory not found: {path}")
    return path


def _load_images(directory, intrinsics=None):
    data = fileio.read_image_directory(directory)
    if not data:
        raise CliError(f"no keypoint files in {directory}")
    images = {}
    for img, (size, kps, desc) in data.items():
        images[img] = engine.ImageInfo(
            width=size[0],
            height=size[1],
            keypoints=kps,
            intrinsics=None if intrinsics is None else intrinsics.get(img),
        )
    return images, data


def _verify_pairs(data, pairs, config, candidate_matches=None):
    edges = []
    rejections = []
    diag = float(np.hypot(*data[next(iter(data))][0]))
    vcfg = config.verify_config(diag)
    for i, j in pairs:
        matches = None if candidate_matches is None else candidate_matches.get((i, j))
        if candidate_matches is not None and matches is None:
            continue
        out = graph.narrow_phase_verify(
            (i, j),
            data[i][1],
            data[j][1],
            data[i][2],
            data[j][2],
            vcfg,
            candidate_matches=matches,
        )
        if isinstance(out, graph.EpipolarEdge):
            edges.append(out)
        else:
            rejections.append(out)
    return edges, rejections


def _descriptor_histogram(data, config):
    """Broad phase: histogram over the high-scale descriptor subsets."""
    subsets = []
    for img in sorted(data):
        size, kps, desc = data[img]
        if desc is None:
            raise CliError(f"image {img} has no descriptors; supply matches instead")
        order = np.argsort(-kps[:, 2], kind="stable")[: config.keypoints_per_image]
        subsets.append(desc[order])
    return graph.broad_phase_histogram(subsets)


def _count_histogram(data, candidate):
    """Broad-phase contract on supplied matches: their counts per pair."""
    index = {img: k for k, img in enumerate(sorted(data))}
    counts = np.zeros((len(index), len(index)), int)
    for (i, j), m in candidate.items():
        counts[index[i], index[j]] = counts[index[j], index[i]] = len(m)
    return graph.MatchHistogram(counts)


def _match(input_dir, data, config, broad_phase=False):
    """Select pairs by repeated maximum spanning trees of a match-count
    histogram, then verify them.  The counts come from the input's
    matches.txt when there is one (unless ``broad_phase``), else from the
    descriptors.  Returns (edges, rejections, selection)."""
    matches_path = os.path.join(input_dir, "matches.txt")
    candidate = None
    if os.path.isfile(matches_path) and not broad_phase:
        candidate = fileio.read_matches(matches_path)
        hist = _count_histogram(data, candidate)
    else:
        hist = _descriptor_histogram(data, config)
    try:
        sel = graph.extract_m_connected_subgraph(hist, m=config.edge_connectivity)
    except graph.GraphDisconnected as exc:
        raise CliError(f"match graph disconnected: components {exc.components}")
    ids = sorted(data)
    pairs = [(ids[a], ids[b]) for a, b in sel.edges]
    edges, rejections = _verify_pairs(data, pairs, config, candidate)
    return edges, rejections, sel


def _tracks_from_edges(edges, config) -> TrackSet:
    return graph.build_tracks(edges, min_track_length=config.min_track_length)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_synth(args):
    config = _load_config(args)
    scene = synthetic.generate(
        args.kind,
        args.cameras,
        args.points,
        seed=args.seed,
        noise_sigma=args.noise,
        outlier_rate=args.outliers,
        image_size=(args.width, args.height),
    )
    fileio.write_scene(scene, args.out)
    fileio.write_config(config, os.path.join(args.out, "config.txt"))
    print(f"wrote scene '{args.kind}' ({args.cameras} cameras) to {args.out}")
    return 0


def cmd_match(args):
    config = _load_config(args)
    _require_dir(args.input, "input")
    images, data = _load_images(args.input)
    edges, rejections, sel = _match(args.input, data, config, args.broad_phase)
    out = args.out or os.path.join(args.input, "verified_matches.txt")
    fileio.write_edges(out, edges)
    print(
        f"verified {len(edges)} pairs "
        f"({len(rejections)} rejected, connectivity {sel.achieved_connectivity})"
    )
    return 0 if edges else 1


def _load_edges_or_verify(args, config, data):
    verified = os.path.join(args.input, "verified_matches.txt")
    if os.path.isfile(verified):
        return fileio.read_edges(verified)
    return _match(args.input, data, config)[0]


def cmd_cluster(args):
    config = _load_config(args)
    _require_dir(args.input, "input")
    images, data = _load_images(args.input)
    edges = _load_edges_or_verify(args, config, data)
    tracks = _tracks_from_edges(edges, config)
    keypoints = {img: data[img][1] for img in data}
    sizes = {img: data[img][0] for img in data}
    affinity = clustering.affinity_matrix(tracks, keypoints, sizes)
    root = clustering.build_balanced_dendrogram(1.0 - affinity, ell=config.ell)
    print(root.render())
    print(f"height {root.height} over {len(images)} images, {len(tracks)} tracks")
    return 0


def cmd_sam(args):
    config = _load_config(args)
    _require_dir(args.input, "input")
    intrinsics = None
    if config.mode == engine.CALIBRATED:
        path = os.path.join(args.input, "intrinsics.txt")
        if not os.path.isfile(path):
            raise CliError("calibrated mode needs intrinsics.txt in the input")
        intrinsics = fileio.read_intrinsics(path)
    images, data = _load_images(args.input, intrinsics)
    edges = _load_edges_or_verify(args, config, data)
    tracks = _tracks_from_edges(edges, config)
    try:
        result = engine.run(images, tracks, edges, config)
    except engine.NoModel as exc:
        raise CliError(str(exc), code=1)
    os.makedirs(args.out, exist_ok=True)
    for k, model in enumerate(result.models):
        fileio.write_model(model, args.out, stem=f"model_{k}", tracks=tracks)
    with open(os.path.join(args.out, "report.txt"), "w", newline="\n") as f:
        f.write("\n".join(result.report_lines) + "\n\n")
        f.write(result.dendrogram_text + "\n")
    for line in result.report_lines:
        print(line)
    print(
        f"{len(result.models)} model(s); largest has "
        f"{max(len(m.cameras) for m in result.models)} cameras"
    )
    return 0


def cmd_eval(args):
    _require_dir(args.truth, "truth")
    _require_dir(args.model, "model")
    scene = fileio.read_scene(args.truth)
    model = fileio.read_model(args.model, stem=args.stem)
    try:
        cmp = synthetic.compare_to_truth(model, scene)
    except synthetic.TooFewCorrespondences:
        raise CliError("model shares too few points with the truth", code=1)
    rms = cmp.similarity_rms
    print(f"control-point registration over {cmp.n_points} points: RMS {rms:.6f}")
    if cmp.focal_errors:
        median = float(np.median(list(cmp.focal_errors.values())))
        print(f"median focal error {100 * median:.3f}%")
    if args.rms_threshold is not None and rms > args.rms_threshold:
        raise CliError(f"RMS {rms} above {args.rms_threshold}", code=1)
    return 0


# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hsfm", description="hierarchical structure-and-motion pipeline"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic scene directory")
    p.add_argument("--kind", default="ring",
                   choices=["ring", "grid", "two-cluster", "planar", "low-parallax"])
    p.add_argument("--cameras", type=int, default=8)
    p.add_argument("--points", type=int, default=300)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--outliers", type=float, default=0.0)
    p.add_argument("--width", type=float, default=2880.0)
    p.add_argument("--height", type=float, default=2160.0)
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("match", help="verify image pairs geometrically")
    p.add_argument("--input", required=True)
    p.add_argument("--out")
    p.add_argument("--broad-phase", action="store_true",
                   help="force descriptor broad phase even when matches.txt exists")
    _add_config_flags(p)
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("cluster", help="print the balanced dendrogram")
    p.add_argument("--input", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("sam", help="run the full reconstruction")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_sam)

    p = sub.add_parser("eval", help="score a model against a synthetic truth")
    p.add_argument("--model", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--stem", default="model_0")
    p.add_argument("--rms-threshold", type=float, default=None)
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return exc.code
    except (fileio.ParseError, OSError) as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
