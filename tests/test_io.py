import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import hsfm
from hsfm import cli, engine, fileio, geometry as geo, synthetic
from hsfm.graph import EpipolarEdge
from hsfm.tracks import TrackSet


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------


def test_default_config_matches_golden_fixture():
    golden = os.path.join(os.path.dirname(__file__), "data", "default_config.txt")
    with open(golden) as f:
        assert fileio.PipelineConfig().serialize() == f.read()


def test_config_round_trip(tmp_path):
    cfg = fileio.PipelineConfig(mode="autocalibrated", ell=5, reproj_divisor=1234.5)
    path = tmp_path / "config.txt"
    fileio.write_config(cfg, path)
    assert fileio.read_config(path) == cfg


def test_config_rejects_unknown_key():
    with pytest.raises(fileio.ParseError):
        fileio.PipelineConfig.parse("no_such_thing = 3")


def test_config_env_override():
    cfg = fileio.PipelineConfig().apply_env({"HSFM_ELL": "7", "HSFM_LOCAL_BA": "false"})
    assert cfg.ell == 7
    assert cfg.local_ba is False


@pytest.mark.parametrize(
    "text, value",
    [("true", True), ("YES", True), ("1", True), ("False", False), ("no", False), ("0", False)],
)
def test_config_booleans_read_strictly(text, value):
    assert fileio.PipelineConfig.parse(f"local_ba = {text}").local_ba is value


def non_default_values():
    """A valid text for every PipelineConfig field that differs from its default."""
    out = {}
    for f in dataclasses.fields(fileio.PipelineConfig):
        if isinstance(f.default, bool):
            out[f.name] = "false" if f.default else "true"
        elif isinstance(f.default, str):
            out[f.name] = engine.AUTOCALIBRATED
        elif isinstance(f.default, int):
            out[f.name] = str(f.default + 1)
        else:
            out[f.name] = repr(2.0 * f.default)
    return out


def test_load_config_same_from_file_environment_and_flags(tmp_path, monkeypatch):
    for key in os.environ:
        if key.startswith("HSFM_"):
            monkeypatch.delenv(key)
    values = non_default_values()
    lines = "".join(f"{name} = {text}\n" for name, text in values.items())
    expected = fileio.PipelineConfig.parse(lines)
    default = fileio.PipelineConfig()
    assert all(getattr(expected, name) != getattr(default, name) for name in values)
    parser = cli.build_parser()
    base = ["sam", "--input", str(tmp_path), "--out", str(tmp_path / "out")]

    config = tmp_path / "config.txt"
    config.write_text(lines)
    from_file = cli._load_config(parser.parse_args(base + ["--config", str(config)]))
    flags = [a for name, text in values.items() for a in ("--" + name.replace("_", "-"), text)]
    from_flags = cli._load_config(parser.parse_args(base + flags))
    with monkeypatch.context() as env:
        for name, text in values.items():
            env.setenv("HSFM_" + name.upper(), text)
        from_env = cli._load_config(parser.parse_args(base))
    assert from_file == expected
    assert from_env == expected
    assert from_flags == expected

    # a flag beats the environment, and the environment beats the file
    config.write_text("ell = 4\nrng_seed = 4\nmode = autocalibrated\n")
    monkeypatch.setenv("HSFM_ELL", "5")
    monkeypatch.setenv("HSFM_RNG_SEED", "5")
    got = cli._load_config(parser.parse_args(base + ["--config", str(config), "--ell", "6"]))
    assert (got.ell, got.rng_seed, got.mode) == (6, 5, engine.AUTOCALIBRATED)


# ---------------------------------------------------------------------------
# keypoints / matches / intrinsics
# ---------------------------------------------------------------------------


def test_keypoints_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    kps = rng.uniform(0, 1000, (25, 4))
    desc = rng.normal(0, 1, (25, 8))
    path = tmp_path / "keypoints_0000.txt"
    fileio.write_keypoints(path, 3, (1600, 1200), kps, desc)
    img, size, kps2, desc2 = fileio.read_keypoints(path)
    assert img == 3
    assert size == (1600.0, 1200.0)
    assert np.array_equal(kps, kps2)
    assert np.array_equal(desc, desc2)


def test_matches_round_trip(tmp_path):
    matches = {(0, 1): np.array([[1, 2], [3, 4]]), (1, 2): np.array([[5, 6]])}
    path = tmp_path / "matches.txt"
    fileio.write_matches(path, matches)
    out = fileio.read_matches(path)
    assert set(out) == set(matches)
    for k in matches:
        assert np.array_equal(out[k], matches[k])


def test_truncated_matches_name_the_line(tmp_path):
    path = tmp_path / "matches.txt"
    path.write_text("pair 0 1 3\n1 2\n")
    with pytest.raises(fileio.ParseError) as err:
        fileio.read_matches(path)
    assert err.value.line_no == 3


def test_negative_match_count_names_the_line(tmp_path):
    # a negative count once stepped the reader back onto its own header
    path = tmp_path / "matches.txt"
    path.write_text("pair 0 1 -1\n")
    with pytest.raises(fileio.ParseError, match="negative") as err:
        fileio.read_matches(path)
    assert err.value.line_no == 1


def test_intrinsics_round_trip(tmp_path):
    intr = {
        0: geo.Intrinsics(1250.0, 1251.5, 0.1, 800.0, 600.0),
        2: geo.Intrinsics(900.0, 900.0, 0.0, 500.0, 400.0),
    }
    path = tmp_path / "intrinsics.txt"
    fileio.write_intrinsics(path, intr)
    out = fileio.read_intrinsics(path)
    assert out == intr


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_keypoints_reject_non_finite(tmp_path, bad):
    path = tmp_path / "keypoints_0000.txt"
    fileio.write_keypoints(path, 0, (1600, 1200), np.ones((3, 4)), np.ones((3, 2)))
    lines = path.read_text().splitlines()
    lines[3] = f"1.0 {bad} 1.0 1.0 1.0 1.0"  # the second keypoint row
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(fileio.ParseError, match="non-finite") as err:
        fileio.read_keypoints(path)
    assert err.value.line_no == 4


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_intrinsics_reject_non_finite(tmp_path, bad):
    path = tmp_path / "intrinsics.txt"
    path.write_text(f"0 1200.0 1200.0 0.0 800.0 600.0\n1 1200.0 1200.0 0.0 {bad} 600.0\n")
    with pytest.raises(fileio.ParseError, match="non-finite") as err:
        fileio.read_intrinsics(path)
    assert err.value.line_no == 2


@pytest.mark.parametrize("line_no", [1, 2])
def test_edges_reject_non_finite(tmp_path, line_no):
    edge = EpipolarEdge(
        pair=(0, 1), matches=np.array([[0, 0], [1, 1]]), model_class="homography",
        matrix=np.eye(3), inlier_count=2, sigma_star=0.5,
    )
    path = tmp_path / "verified_matches.txt"
    fileio.write_edges(path, [edge])
    lines = path.read_text().splitlines()
    # the robust scale on the pair header, or one matrix entry
    lines[line_no - 1] = lines[line_no - 1].rsplit(" ", 1)[0] + " nan"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(fileio.ParseError, match="non-finite") as err:
        fileio.read_edges(path)
    assert err.value.line_no == line_no


# ---------------------------------------------------------------------------
# model round trip
# ---------------------------------------------------------------------------


def small_model():
    scene = synthetic.generate("ring", 3, 30, seed=1)
    tps = []
    for t_idx, track in enumerate(scene.tracks):
        p = scene.track_point_ids[t_idx]
        tps.append(
            geo.TiePoint(
                track={img: scene.observations[img][p] for img in track.members},
                position=scene.points[p].copy(),
                status=geo.TRIANGULATED,
                track_index=t_idx,
            )
        )
    return geo.Model(cameras=dict(scene.cameras), tie_points=tps, frame=geo.EUCLIDEAN), scene


def test_model_round_trip_bit_equal(tmp_path):
    model, scene = small_model()
    fileio.write_model(model, tmp_path, stem="m", tracks=scene.tracks)
    again = fileio.read_model(tmp_path, stem="m")
    fileio.write_model(again, tmp_path / "second", stem="m")
    for name in ("m_cameras.txt", "m_points.ply"):
        with open(tmp_path / name) as f1, open(tmp_path / "second" / name) as f2:
            assert f1.read() == f2.read()


def test_point_cloud_is_valid_ply(tmp_path):
    model, scene = small_model()
    fileio.write_point_cloud(tmp_path / "pts.ply", model)
    text = (tmp_path / "pts.ply").read_text().splitlines()
    # conformance with the ASCII polygon-format header structure
    assert text[0] == "ply"
    assert text[1] == "format ascii 1.0"
    assert text[2].startswith("element vertex ")
    n = int(text[2].split()[2])
    props = [l for l in text[3:8] if l.startswith("property")]
    assert len(props) == 4
    assert "end_header" in text
    body_start = text.index("end_header") + 1
    assert len(text) - body_start == n
    pts, lengths = fileio.read_point_cloud(tmp_path / "pts.ply")
    assert len(pts) == n
    assert (lengths >= 2).all()


def test_truncated_cameras_error(tmp_path):
    path = tmp_path / "m_cameras.txt"
    path.write_text("frame euclidean\n0 euclidean 1 2 3\n")
    with pytest.raises(fileio.ParseError) as err:
        fileio.read_cameras(path)
    assert err.value.line_no == 2


# ---------------------------------------------------------------------------
# scene directories + CLI
# ---------------------------------------------------------------------------


def test_scene_write_read_regenerates_identical(tmp_path):
    scene = synthetic.generate("ring", 4, 60, seed=9, noise_sigma=0.3)
    fileio.write_scene(scene, tmp_path)
    again = fileio.read_scene(tmp_path)
    assert np.array_equal(again.points, scene.points)
    for img in scene.cameras:
        assert np.array_equal(again.keypoints[img], scene.keypoints[img])


def test_synth_twice_identical_files(tmp_path):
    for sub in ("a", "b"):
        assert (
            cli.main(
                [
                    "synth", "--kind", "ring", "--cameras", "3", "--points", "40",
                    "--seed", "5", "--out", str(tmp_path / sub),
                ]
            )
            == 0
        )
    for name in sorted(os.listdir(tmp_path / "a")):
        with open(tmp_path / "a" / name) as f1, open(tmp_path / "b" / name) as f2:
            assert f1.read() == f2.read(), name


def test_cli_missing_input_path(tmp_path, capsys):
    code = cli.main(["sam", "--input", str(tmp_path / "void"), "--out", str(tmp_path / "o")])
    assert code != 0
    err = capsys.readouterr().err
    assert "void" in err and "error" in err


def test_cli_calibrated_without_intrinsics(tmp_path, capsys):
    scene = synthetic.generate("ring", 3, 60, seed=2)
    fileio.write_scene(scene, tmp_path / "in")
    os.remove(tmp_path / "in" / "intrinsics.txt")
    code = cli.main(
        ["sam", "--input", str(tmp_path / "in"), "--out", str(tmp_path / "out"),
         "--mode", "calibrated"]
    )
    assert code == 2
    assert "intrinsics" in capsys.readouterr().err


def test_cli_rejects_removed_config_key(tmp_path, capsys):
    # an old config file asking for two-view points must fail loudly, not
    # run with a different meaning
    scene_dir, out_dir = tmp_path / "scene", tmp_path / "out"
    fileio.write_scene(synthetic.generate("ring", 4, 80, seed=6), scene_dir)
    lines = fileio.PipelineConfig().serialize().splitlines()
    lines.insert(18, "final_min_track_length = 2")
    config = tmp_path / "config.txt"
    config.write_text("\n".join(lines) + "\n")
    code = cli.main(
        ["sam", "--input", str(scene_dir), "--out", str(out_dir), "--config", str(config)]
    )
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseError"
    assert f"{config}:19:" in err["message"]
    assert "final_min_track_length" in err["message"]
    assert not out_dir.exists()
    with pytest.raises(SystemExit):
        cli.main(["sam", "--help"])
    assert "--final-min-track-length" not in capsys.readouterr().out


def test_cli_rejects_unknown_environment_variable(tmp_path, capsys, monkeypatch):
    # an HSFM_<NAME> variable naming no parameter fails like a config file
    # or flag naming one, instead of being ignored
    scene_dir, out_dir = tmp_path / "scene", tmp_path / "out"
    fileio.write_scene(synthetic.generate("ring", 4, 80, seed=6), scene_dir)
    monkeypatch.setenv("HSFM_FINAL_MIN_TRACK_LENGTH", "2")
    code = cli.main(["sam", "--input", str(scene_dir), "--out", str(out_dir)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseError"
    assert "HSFM_FINAL_MIN_TRACK_LENGTH" in err["message"]
    assert not out_dir.exists()


@pytest.fixture(scope="module")
def small_scene(tmp_path_factory):
    scene_dir = tmp_path_factory.mktemp("scene")
    fileio.write_scene(synthetic.generate("ring", 4, 80, seed=6), scene_dir)
    return scene_dir


@pytest.mark.parametrize("source", ["file", "flag", "env"])
@pytest.mark.parametrize(
    "name, value",
    [
        ("mode", "bogus"),
        ("reproj_divisor", "-5"),
        ("msac_max_iterations", "0"),
        ("local_ba", "ture"),
        ("autocal_min_cameras", "2"),
        ("ell", "0"),
    ],
)
def test_cli_names_every_out_of_domain_value(
    small_scene, tmp_path, capsys, monkeypatch, name, value, source
):
    # a value outside its parameter's domain is one JSON error naming the
    # parameter, never a traceback or a run with another meaning
    out_dir = tmp_path / "out"
    argv = ["sam", "--input", str(small_scene), "--out", str(out_dir)]
    if source == "file":
        config = tmp_path / "config.txt"
        config.write_text(f"{name} = {value}\n")
        argv += ["--config", str(config)]
    elif source == "flag":
        argv += ["--" + name.replace("_", "-"), value]
    else:
        monkeypatch.setenv("HSFM_" + name.upper(), value)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    report = json.loads(err)
    assert report["error"] == "ParseError"
    assert name in report["message"]
    assert not out_dir.exists()


VERIFIED = [
    "pair 0 1 fundamental 2 0.5",
    "matrix 0 0 0 0 0 -1 0 1 0",
    "0 0",
    "1 1",
]


@pytest.mark.parametrize(
    "line_no, text",
    [
        (1, "pair x 1 fundamental 2 0.5"),
        (1, "pair 0 1.0 fundamental 2 0.5"),
        (1, "pair 0 1 fundamental two 0.5"),
        (1, "pair 0 1 affine 2 0.5"),
        (1, "pair 0 1 fundamental -1 0.5"),
        (2, None),  # no matrix line at the end of the file
        (2, ""),
        (3, "0"),
        (3, "0 0 1"),
        (4, "1 b"),
        (4, None),  # fewer match rows than the inlier count
    ],
)
def test_cli_names_the_line_of_a_malformed_verified_pair(
    small_scene, tmp_path, capsys, line_no, text
):
    # verified_matches.txt is what match hands to sam: any malformed line is
    # one JSON ParseError naming it, never a traceback
    scene_dir = tmp_path / "scene"
    shutil.copytree(small_scene, scene_dir)
    lines = list(VERIFIED)
    if text is None:
        del lines[line_no - 1:]
    else:
        lines[line_no - 1] = text
    (scene_dir / "verified_matches.txt").write_text("\n".join(lines) + "\n")
    out_dir = tmp_path / "out"
    assert cli.main(["sam", "--input", str(scene_dir), "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    report = json.loads(err)
    assert report["error"] == "ParseError"
    assert f"verified_matches.txt:{line_no}:" in report["message"]


def test_cli_synth_sam_eval_round_trip(tmp_path, capsys):
    scene_dir = str(tmp_path / "scene")
    out_dir = str(tmp_path / "out")
    assert cli.main(
        ["synth", "--kind", "ring", "--cameras", "6", "--points", "200",
         "--seed", "11", "--noise", "0.3", "--out", scene_dir]
    ) == 0
    assert cli.main(["match", "--input", scene_dir]) == 0
    assert cli.main(["sam", "--input", scene_dir, "--out", out_dir]) == 0
    assert os.path.isfile(os.path.join(out_dir, "model_0_cameras.txt"))
    assert os.path.isfile(os.path.join(out_dir, "model_0_points.ply"))
    assert cli.main(
        ["eval", "--model", out_dir, "--truth", scene_dir, "--rms-threshold", "0.05"]
    ) == 0
    out = capsys.readouterr().out
    assert "RMS" in out


def scipy_imports(*commands, code=""):
    """The scipy modules a fresh process imports while it runs the Python
    ``code`` and then the ``hsfm`` ``commands`` (argument lists), in the
    order of their first import."""
    script = (
        "import sys\n"
        "class Spy:\n"
        "    seen = []\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.split('.')[0] == 'scipy':\n"
        "            Spy.seen.append(name)\n"
        "sys.meta_path.insert(0, Spy())\n"
        "from hsfm import cli\n"
        + code
        + "".join(f"assert cli.main({argv!r}) == 0\n" for argv in commands)
        + "import json\nprint(json.dumps(Spy.seen))\n"
    )
    src = os.path.dirname(os.path.dirname(hsfm.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


def test_cli_match_loads_no_scipy(tmp_path):
    # scipy is a test dependency only; no hsfm process may import it
    scene_dir = str(tmp_path / "scene")
    fileio.write_scene(synthetic.generate("ring", 4, 80, seed=6, noise_sigma=0.3), scene_dir)
    assert scipy_imports(["match", "--input", scene_dir]) == []
    assert os.path.isfile(os.path.join(scene_dir, "verified_matches.txt"))


def test_cli_calibrated_sam_loads_no_scipy(tmp_path):
    scene_dir, out_dir = str(tmp_path / "scene"), str(tmp_path / "out")
    fileio.write_scene(synthetic.generate("ring", 5, 120, seed=6, noise_sigma=0.3), scene_dir)
    loaded = scipy_imports(
        ["match", "--input", scene_dir],
        ["sam", "--input", scene_dir, "--out", out_dir, "--mode", "calibrated"],
    )
    assert os.path.isfile(os.path.join(out_dir, "model_0_cameras.txt"))
    assert loaded == []


def test_cli_autocalibrated_sam_loads_no_scipy(tmp_path):
    scene_dir, out_dir = str(tmp_path / "scene"), str(tmp_path / "out")
    fileio.write_scene(synthetic.generate("ring", 6, 120, seed=31, noise_sigma=0.3), scene_dir)
    loaded = scipy_imports(
        ["match", "--input", scene_dir],
        ["sam", "--input", scene_dir, "--out", out_dir, "--mode", "autocalibrated"],
    )
    assert os.path.isfile(os.path.join(out_dir, "model_0_cameras.txt"))
    assert loaded == []


def test_cli_noise_free_scene_rejects_no_action(tmp_path):
    # noise-free resection: the robust scale of the best sample is ~1e-13 px,
    # so an absolute gate floor sat below the rounding residuals of the refit
    # and image 3's resection lost its consensus set
    scene_dir, out_dir = str(tmp_path / "scene"), str(tmp_path / "out")
    fileio.write_scene(synthetic.generate("ring", 5, 200, seed=38), scene_dir)
    assert cli.main(["match", "--input", scene_dir]) == 0
    assert cli.main(
        ["sam", "--input", scene_dir, "--out", out_dir, "--mode", "calibrated"]
    ) == 0
    with open(os.path.join(out_dir, "report.txt")) as fh:
        report = fh.read()
    assert "rejected" not in report
    assert "ok cams=5" in report


def test_cli_cluster_report(tmp_path, capsys):
    scene_dir = str(tmp_path / "scene")
    cli.main(
        ["synth", "--kind", "ring", "--cameras", "5", "--points", "150",
         "--seed", "3", "--out", scene_dir]
    )
    assert cli.main(["cluster", "--input", scene_dir]) == 0
    out = capsys.readouterr().out
    assert "height" in out
    assert "image" in out
