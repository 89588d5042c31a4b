"""Line-oriented text formats and the pipeline configuration.

All formats use dot-decimal, newline-normalized ASCII with 17 significant
digits for floats, which round-trips IEEE doubles exactly.  Point clouds are
written as ASCII PLY so they load in standard mesh viewers.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

import numpy as np

from . import autocalib, engine, robust
from . import geometry as geo
from .graph import EpipolarEdge, VerifyConfig
from .tracks import TrackSet


class ParseError(Exception):
    def __init__(self, path, line_no, message):
        where = path if line_no is None else f"{path}:{line_no}"
        super().__init__(f"{where}: {message}")
        self.path = path
        self.line_no = line_no


def _floats(path, line_no, fields, what):
    """``fields`` as floats; a nan or inf is a ParseError naming the line."""
    try:
        values = [float(v) for v in fields]
    except ValueError:
        raise ParseError(path, line_no, f"bad {what}")
    if not all(np.isfinite(values)):
        raise ParseError(path, line_no, f"non-finite value in {what}")
    return values


def _ints(path, line_no, fields, what):
    """``fields`` as integers; anything else is a ParseError naming the line."""
    try:
        return [int(v) for v in fields]
    except ValueError:
        raise ParseError(path, line_no, f"bad {what}")


def _match_rows(path, lines, start, n):
    """The ``n`` keypoint index pairs on ``lines[start:]``, as (n, 2)."""
    rows = []
    for r in range(start, start + n):
        fields = lines[r].split() if r < len(lines) else []
        if len(fields) != 2:
            raise ParseError(path, r + 1, "bad or missing match row")
        rows.append(_ints(path, r + 1, fields, "match row"))
    return np.array(rows, int).reshape(-1, 2)


def _fmt(x: float) -> str:
    # repr is the shortest decimal (at most 17 significant digits) that
    # round-trips the double exactly
    return repr(float(x))


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


# parameter -> (test, what a value must be); a parameter not listed takes
# any value of its type
_DOMAINS = {
    "mode": (
        lambda v: v in (engine.CALIBRATED, engine.AUTOCALIBRATED),
        f"{engine.CALIBRATED!r} or {engine.AUTOCALIBRATED!r}",
    ),
    **dict.fromkeys(
        ("keypoints_per_image", "edge_connectivity", "msac_max_iterations",
         "max_ba_iterations", "ell"),
        (lambda v: v >= 1, ">= 1"),
    ),
    "min_track_length": (lambda v: v >= 2, ">= 2"),
    **dict.fromkeys(
        ("matching_ratio", "bucket_divisor", "gric_ratio", "reproj_divisor",
         "condition_limit", "final_reproj_divisor"),
        (lambda v: v > 0, "positive"),
    ),
    "survivor_fraction": (lambda v: 0 <= v <= 1, "in [0, 1]"),
    # known skew and aspect ratio: the Euclidean tag needs enough cameras
    "autocal_min_cameras": (
        lambda v: autocalib.counting_feasible(v, 2, 0),
        ">= 4 (the autocalibration counting argument)",
    ),
}

_BOOLEANS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


@dataclass
class PipelineConfig:
    """Every settable pipeline parameter with its default: the one table
    that matching, clustering and the engine read, checked when built.

    Image-diagonal-relative values are stored as divisors (bucket size
    D/25, reprojection gates D/1800 and D/2400) and resolved per image.
    """

    mode: str = "calibrated"
    rng_seed: int = 0
    # matching, broad phase
    keypoints_per_image: int = 300
    edge_connectivity: int = 8
    # matching, narrow phase
    matching_ratio: float = 1.5
    msac_max_iterations: int = 1000
    bucket_divisor: float = 25.0
    min_matches: int = 10
    gric_ratio: float = 1.2
    min_track_length: int = 3
    survivor_fraction: float = 0.2
    # reconstruction
    max_ba_iterations: int = 100
    reproj_divisor: float = 1800.0
    condition_limit: float = 1e4
    local_ba: bool = True
    ell: int = 3
    # autocalibration
    autocal_min_cameras: int = 4
    fix_internals_after: int = 25
    # final pass
    final_reproj_divisor: float = 2400.0

    def __post_init__(self):
        for name, (ok, rule) in _DOMAINS.items():
            value = getattr(self, name)
            if not ok(value):
                raise ValueError(f"{name} must be {rule}, got {value!r}")

    def serialize(self) -> str:
        lines = []
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if isinstance(v, bool):
                v = "true" if v else "false"
            elif isinstance(v, float):
                v = _fmt(v)
            lines.append(f"{f.name} = {v}")
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str, path="<config>") -> "PipelineConfig":
        entries = []
        for no, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParseError(path, no, "expected 'key = value'")
            key, _, val = line.partition("=")
            entries.append((path, no, key.strip(), val.strip()))
        return cls().override(entries)

    def override(self, entries) -> "PipelineConfig":
        """A copy with ``(path, line_no, name, text)`` entries applied in
        order; an unknown name or a bad value is a ParseError naming the
        entry's source and the parameter."""
        defaults = {f.name: f.default for f in dataclasses.fields(self)}
        config = self
        for path, no, key, text in entries:
            if key not in defaults:
                raise ParseError(path, no, f"unknown parameter {key!r}")
            try:
                if isinstance(defaults[key], bool):
                    value = _BOOLEANS[text.lower()]
                else:
                    value = type(defaults[key])(text)
            except (KeyError, ValueError):
                raise ParseError(path, no, f"bad value for {key}: {text!r}")
            try:
                config = dataclasses.replace(config, **{key: value})
            except ValueError as exc:  # outside the domain __post_init__ checks
                raise ParseError(path, no, str(exc))
        return config

    def apply_env(self, environ) -> "PipelineConfig":
        """Override fields from HSFM_<NAME> variables; an unknown NAME is a ParseError."""
        return self.override(
            (key, None, key[5:].lower(), value)
            for key, value in environ.items()
            if key.startswith("HSFM_")
        )

    def verify_config(self, diagonal: float) -> VerifyConfig:
        return VerifyConfig(
            inlier_threshold=diagonal / self.reproj_divisor,
            bucket_size=diagonal / self.bucket_divisor,
            ratio=self.matching_ratio,
            min_matches=self.min_matches,
            survivor_fraction=self.survivor_fraction,
            gric_ratio=self.gric_ratio,
            max_iterations=self.msac_max_iterations,
            rng_seed=self.rng_seed,
        )


def read_config(path) -> PipelineConfig:
    with open(path) as f:
        return PipelineConfig.parse(f.read(), path=str(path))


def write_config(config: PipelineConfig, path):
    with open(path, "w", newline="\n") as f:
        f.write(config.serialize())


# ---------------------------------------------------------------------------
# keypoints
# ---------------------------------------------------------------------------


def write_keypoints(path, image_id, size, keypoints, descriptors=None):
    """One file per image: header, then one keypoint per line
    (x y scale angle descriptor...)."""
    keypoints = np.asarray(keypoints, float)
    with open(path, "w", newline="\n") as f:
        f.write(f"image {image_id} {_fmt(size[0])} {_fmt(size[1])}\n")
        dim = 0 if descriptors is None else int(np.asarray(descriptors).shape[1])
        f.write(f"count {len(keypoints)} descriptor_dim {dim}\n")
        for k, row in enumerate(keypoints):
            vals = [_fmt(v) for v in row[:4]]
            if descriptors is not None:
                vals += [_fmt(v) for v in descriptors[k]]
            f.write(" ".join(vals) + "\n")


def read_keypoints(path):
    """Returns (image_id, (w, h), keypoints (n, 4), descriptors or None)."""
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines or not lines[0].startswith("image "):
        raise ParseError(path, 1, "expected 'image <id> <w> <h>'")
    try:
        _, img, w, h = lines[0].split()
        image_id = int(img)
    except ValueError:
        raise ParseError(path, 1, "bad image header")
    size = tuple(_floats(path, 1, (w, h), "image header"))
    try:
        head = lines[1].split()
        count, dim = int(head[1]), int(head[3])
    except (IndexError, ValueError):
        raise ParseError(path, 2, "expected 'count <n> descriptor_dim <d>'")
    kps = np.zeros((count, 4))
    desc = np.zeros((count, dim)) if dim else None
    for k in range(count):
        no = 3 + k
        if 2 + k >= len(lines):
            raise ParseError(path, no, "bad or missing keypoint row")
        vals = _floats(path, no, lines[2 + k].split(), "keypoint row")
        if len(vals) != 4 + dim:
            raise ParseError(path, no, f"expected {4 + dim} values")
        kps[k] = vals[:4]
        if dim:
            desc[k] = vals[4:]
    return image_id, size, kps, desc


# ---------------------------------------------------------------------------
# matches
# ---------------------------------------------------------------------------


def write_matches(path, matches):
    """``matches``: dict (i, j) -> (n, 2) keypoint index pairs."""
    with open(path, "w", newline="\n") as f:
        for (i, j) in sorted(matches):
            m = np.asarray(matches[(i, j)], int)
            f.write(f"pair {i} {j} {len(m)}\n")
            for a, b in m:
                f.write(f"{a} {b}\n")


def read_matches(path):
    matches = {}
    with open(path) as f:
        lines = f.read().splitlines()
    k = 0
    while k < len(lines):
        if not lines[k].strip():
            k += 1
            continue
        parts = lines[k].split()
        if parts[0] != "pair" or len(parts) != 4:
            raise ParseError(path, k + 1, "expected 'pair <i> <j> <n>'")
        i, j, n = _ints(path, k + 1, parts[1:], "pair header")
        if n < 0:
            raise ParseError(path, k + 1, "negative match count")
        matches[(i, j)] = _match_rows(path, lines, k + 1, n)
        k += 1 + n
    return matches


def write_edges(path, edges):
    """Verified pair geometry: class, robust scale, 3x3 matrix, inliers."""
    with open(path, "w", newline="\n") as f:
        for e in sorted(edges, key=lambda e: e.pair):
            i, j = e.pair
            f.write(
                f"pair {i} {j} {e.model_class} {e.inlier_count} {_fmt(e.sigma_star)}\n"
            )
            f.write("matrix " + " ".join(_fmt(v) for v in e.matrix.ravel()) + "\n")
            for a, b in e.matches:
                f.write(f"{a} {b}\n")


def read_edges(path):
    edges = []
    with open(path) as f:
        lines = f.read().splitlines()
    k = 0
    while k < len(lines):
        if not lines[k].strip():
            k += 1
            continue
        parts = lines[k].split()
        if parts[0] != "pair" or len(parts) != 6:
            raise ParseError(path, k + 1, "expected verified pair header")
        i, j, n = _ints(path, k + 1, [parts[1], parts[2], parts[4]], "pair header")
        if n < 0:
            raise ParseError(path, k + 1, "negative inlier count")
        model_class = parts[3]
        if model_class not in (robust.HOMOGRAPHY, robust.FUNDAMENTAL):
            raise ParseError(path, k + 1, f"unknown model class {model_class!r}")
        (sigma,) = _floats(path, k + 1, parts[5:], "robust scale")
        mparts = lines[k + 1].split() if k + 1 < len(lines) else []
        if mparts[:1] != ["matrix"] or len(mparts) != 10:
            raise ParseError(path, k + 2, "expected 'matrix <9 values>'")
        matrix = np.array(_floats(path, k + 2, mparts[1:], "matrix")).reshape(3, 3)
        edges.append(
            EpipolarEdge(
                pair=(i, j),
                matches=_match_rows(path, lines, k + 2, n),
                model_class=model_class,
                matrix=matrix,
                inlier_count=n,
                sigma_star=sigma,
            )
        )
        k += 2 + n
    return edges


# ---------------------------------------------------------------------------
# intrinsics
# ---------------------------------------------------------------------------


def write_intrinsics(path, intrinsics):
    """``intrinsics``: dict image id -> Intrinsics."""
    with open(path, "w", newline="\n") as f:
        for img in sorted(intrinsics):
            k = intrinsics[img]
            f.write(
                f"{img} {_fmt(k.fx)} {_fmt(k.fy)} {_fmt(k.skew)} "
                f"{_fmt(k.cx)} {_fmt(k.cy)}\n"
            )


def read_intrinsics(path):
    out = {}
    with open(path) as f:
        for no, raw in enumerate(f.read().splitlines(), 1):
            if not raw.strip() or raw.startswith("#"):
                continue
            parts = raw.split()
            if len(parts) != 6:
                raise ParseError(path, no, "expected '<id> fx fy skew cx cy'")
            values = _floats(path, no, parts[1:], "intrinsics")
            try:
                out[int(parts[0])] = geo.Intrinsics(*values)
            except ValueError as exc:
                raise ParseError(path, no, str(exc))
    return out


# ---------------------------------------------------------------------------
# models (cameras + point cloud)
# ---------------------------------------------------------------------------


def write_cameras(path, model: geo.Model):
    """One camera per line: id, kind, the 12 matrix entries, then the
    intrinsics (fx fy skew cx cy radial) for Euclidean cameras."""
    with open(path, "w", newline="\n") as f:
        f.write(f"frame {model.frame}\n")
        for img in sorted(model.cameras):
            cam = model.cameras[img]
            entries = " ".join(_fmt(v) for v in cam.P.ravel())
            if cam.kind == geo.EUCLIDEAN:
                k = cam.intrinsics
                extra = (
                    f" {_fmt(k.fx)} {_fmt(k.fy)} {_fmt(k.skew)}"
                    f" {_fmt(k.cx)} {_fmt(k.cy)} {_fmt(cam.radial)}"
                )
            else:
                extra = ""
            f.write(f"{img} {cam.kind} {entries}{extra}\n")


def read_cameras(path):
    with open(path) as f:
        lines = f.read().splitlines()
    head = lines[0].split() if lines else []
    if len(head) != 2 or head[0] != "frame" or head[1] not in (geo.EUCLIDEAN, geo.PROJECTIVE):
        raise ParseError(path, 1, "expected 'frame <euclidean|projective>'")
    cameras = {}
    for no, raw in enumerate(lines[1:], 2):
        if not raw.strip():
            continue
        parts = raw.split()
        if len(parts) not in (14, 20):
            raise ParseError(path, no, f"expected 14 or 20 fields, got {len(parts)}")
        (img,) = _ints(path, no, parts[:1], "camera id")
        kind = parts[1]
        if (kind, len(parts)) not in ((geo.PROJECTIVE, 14), (geo.EUCLIDEAN, 20)):
            raise ParseError(path, no, f"bad camera kind {kind!r} for {len(parts)} fields")
        P = np.array(_floats(path, no, parts[2:14], "camera matrix")).reshape(3, 4)
        if kind == geo.PROJECTIVE:
            cameras[img] = geo.Camera(P=P, kind=geo.PROJECTIVE)
            continue
        fx, fy, skew, cx, cy, radial = _floats(path, no, parts[14:20], "intrinsics")
        try:
            K, R, C = geo.decompose_projection(P)
            intrinsics = geo.Intrinsics(fx, fy, skew, cx, cy)
        except (ValueError, geo.GeometryError) as exc:
            raise ParseError(path, no, str(exc))
        cameras[img] = geo.Camera(
            P=P, kind=geo.EUCLIDEAN, intrinsics=intrinsics, R=R, C=C, radial=radial
        )
    return geo.Model(cameras=cameras, tie_points=[], frame=head[1])


def write_point_cloud(path, model: geo.Model):
    """ASCII PLY with double-precision coordinates and per-point track length."""
    tps = model.triangulated()
    with open(path, "w", newline="\n") as f:
        f.write("ply\n")
        f.write("format ascii 1.0\n")
        f.write(f"element vertex {len(tps)}\n")
        f.write("property double x\n")
        f.write("property double y\n")
        f.write("property double z\n")
        f.write("property int track_length\n")
        f.write("end_header\n")
        for tp in tps:
            x, y, z = tp.position
            n = len(tp.track) or getattr(tp, "track_length", 0)
            f.write(f"{_fmt(x)} {_fmt(y)} {_fmt(z)} {n}\n")


def read_point_cloud(path):
    """Returns (positions (n, 3), track lengths (n,))."""
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines or lines[0] != "ply":
        raise ParseError(path, 1, "not a PLY file")
    n = None
    header_end = None
    for no, line in enumerate(lines[1:], 2):
        if line.startswith("element vertex"):
            counts = _ints(path, no, line.split()[2:], "vertex count")
            if len(counts) != 1 or counts[0] < 0:
                raise ParseError(path, no, "bad vertex count")
            n = counts[0]
        if line == "end_header":
            header_end = no
            break
    if n is None or header_end is None:
        raise ParseError(path, 1, "incomplete PLY header")
    pts = np.zeros((n, 3))
    lengths = np.zeros(n, int)
    for k in range(n):
        no = header_end + 1 + k
        vals = lines[no - 1].split() if no <= len(lines) else []
        if len(vals) != 4:
            raise ParseError(path, no, "bad or missing vertex row")
        pts[k] = _floats(path, no, vals[:3], "vertex row")
        lengths[k] = _ints(path, no, vals[3:], "vertex row")[0]
    return pts, lengths


def write_tie_point_tracks(path, model: geo.Model, tracks: TrackSet):
    """Per tie-point keypoint observations, one line per triangulated point
    in point-cloud order: 'point <k> <img>:<kp> <img>:<kp> ...'."""
    with open(path, "w", newline="\n") as f:
        for k, tp in enumerate(model.triangulated()):
            if tp.track_index is None or tp.track_index >= len(tracks):
                f.write(f"point {k}\n")
                continue
            obs = " ".join(
                f"{img}:{kp}"
                for img, kp in sorted(tracks[tp.track_index].members.items())
            )
            f.write(f"point {k} {obs}\n")


def read_tie_point_tracks(path):
    """Returns a list of {image id: keypoint index} dicts in point order."""
    out = []
    with open(path) as f:
        for no, raw in enumerate(f.read().splitlines(), 1):
            if not raw.strip():
                continue
            parts = raw.split()
            if parts[0] != "point" or len(parts) < 2:
                raise ParseError(path, no, "expected 'point <k> ...'")
            _ints(path, no, parts[1:2], "point index")
            members = {}
            for item in parts[2:]:
                fields = item.split(":")
                if len(fields) != 2:
                    raise ParseError(path, no, f"bad img:kp item {item!r}")
                img, kp = _ints(path, no, fields, f"img:kp item {item!r}")
                members[img] = kp
            out.append(members)
    return out


def write_model(model: geo.Model, directory, stem="model", tracks: TrackSet = None):
    os.makedirs(directory, exist_ok=True)
    write_cameras(os.path.join(directory, f"{stem}_cameras.txt"), model)
    write_point_cloud(os.path.join(directory, f"{stem}_points.ply"), model)
    if tracks is not None:
        write_tie_point_tracks(
            os.path.join(directory, f"{stem}_tiepoints.txt"), model, tracks
        )


def read_model(directory, stem="model") -> geo.Model:
    model = read_cameras(os.path.join(directory, f"{stem}_cameras.txt"))
    pts, lengths = read_point_cloud(os.path.join(directory, f"{stem}_points.ply"))
    obs_path = os.path.join(directory, f"{stem}_tiepoints.txt")
    observations = (
        read_tie_point_tracks(obs_path) if os.path.isfile(obs_path) else None
    )
    for k, (pos, ln) in enumerate(zip(pts, lengths)):
        tp = geo.TiePoint(track={}, position=pos, status=geo.TRIANGULATED)
        tp.track_length = int(ln)
        if observations is not None and k < len(observations):
            tp.observed_keypoints = observations[k]
        model.tie_points.append(tp)
    return model


# ---------------------------------------------------------------------------
# synthetic scene directories
# ---------------------------------------------------------------------------


SCENE_PARAMS = "scene.txt"


def write_scene(scene, directory):
    """Dump a synthetic scene in the pipeline's input formats, plus the
    generation parameters so evaluation can rebuild the ground truth."""
    os.makedirs(directory, exist_ok=True)
    for img in sorted(scene.cameras):
        write_keypoints(
            os.path.join(directory, f"keypoints_{img:04d}.txt"),
            img,
            scene.image_size,
            scene.keypoints[img],
            scene.descriptors[img],
        )
    write_matches(os.path.join(directory, "matches.txt"), scene.matches)
    write_intrinsics(
        os.path.join(directory, "intrinsics.txt"),
        {img: cam.intrinsics for img, cam in scene.cameras.items()},
    )
    with open(os.path.join(directory, SCENE_PARAMS), "w", newline="\n") as f:
        f.write(f"kind = {scene.kind}\n")
        f.write(f"cameras = {len(scene.cameras)}\n")
        f.write(f"points = {len(scene.points)}\n")
        f.write(f"seed = {scene.seed}\n")
        f.write(f"noise_sigma = {_fmt(scene.noise_sigma)}\n")
        f.write(f"outlier_rate = {_fmt(scene.outlier_rate)}\n")
        f.write(f"width = {_fmt(scene.image_size[0])}\n")
        f.write(f"height = {_fmt(scene.image_size[1])}\n")


def read_scene(directory):
    """Regenerate the synthetic scene recorded in a directory."""
    from . import synthetic

    path = os.path.join(directory, SCENE_PARAMS)
    fields = {}  # parameter -> (line number, values)
    with open(path) as f:
        for no, raw in enumerate(f.read().splitlines(), 1):
            if not raw.strip():
                continue
            key, _, val = raw.partition("=")
            fields[key.strip()] = (no, val.split())

    def value(key, parse=None):
        if key not in fields:
            raise ParseError(path, None, f"missing scene parameter {key!r}")
        no, vals = fields[key]
        if len(vals) != 1:
            raise ParseError(path, no, f"expected one value for scene parameter {key!r}")
        return vals[0] if parse is None else parse(path, no, vals, key)[0]

    return synthetic.generate(
        value("kind"),
        value("cameras", _ints),
        value("points", _ints),
        seed=value("seed", _ints),
        noise_sigma=value("noise_sigma", _floats),
        outlier_rate=value("outlier_rate", _floats),
        image_size=(value("width", _floats), value("height", _floats)),
    )


def read_image_directory(directory):
    """Load every keypoints_*.txt file; returns dict id -> (size, kps, desc)."""
    out = {}
    for name in sorted(os.listdir(directory)):
        if name.startswith("keypoints_") and name.endswith(".txt"):
            image_id, size, kps, desc = read_keypoints(os.path.join(directory, name))
            out[image_id] = (size, kps, desc)
    return out
