import csv
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import gradus
from gradus.cli import main
from gradus.config import load_config
from gradus.denoiser import DenoiserHyperparams
from gradus.errors import PhraseValidationError
from gradus.graph import FeatureFlags
from gradus.rules import RuleConfig

from conftest import CORPUS_DIR, counting

EXAMPLE_CONFIG = CORPUS_DIR.parent / "config.example.json"


def write_config(tmp_path, **overrides):
    cfg = {
        "corpus_dir": str(CORPUS_DIR),
        "out_dir": str(tmp_path / "out"),
        "master_seed": 11,
        "train_seed": 1,
        "layers": 1,
        "hidden_dim": 16,
        "heads": 2,
        "epochs": 3,
        "batch_size": 4,
        "learning_rate": 0.002,
        "B": 2,
        "K": 1,
        "home_key": {"tonic": "C", "mode": "major"},
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg, indent=2))
    return path


def read_loss_csv(path):
    """The rows ``train`` writes to loss.csv: (epoch, train_loss, val_loss)."""
    with open(path, newline="") as fh:
        return [(int(e), float(t), float(v)) for e, t, v in csv.reader(fh)]


def test_config_requires_seeds(tmp_path):
    path = write_config(tmp_path)
    raw = json.loads(path.read_text())
    del raw["master_seed"]
    path.write_text(json.dumps(raw))
    with pytest.raises(PhraseValidationError, match="master_seed"):
        load_config(path)


def test_config_relative_paths(tmp_path):
    path = write_config(tmp_path, corpus_dir="corpus_rel", out_dir="out_rel")
    cfg = load_config(path)
    assert cfg.corpus_dir == tmp_path / "corpus_rel"
    assert cfg.out_dir == tmp_path / "out_rel"


def test_example_config_is_the_benchmark_setup():
    # The ROADMAP's headline figure and perfbench's generate_guided workload
    # run this setup: B=40 phrases, K=8, T=100, the toy denoiser (30
    # epochs) trained with seed 1, and the default features and rules.
    cfg = load_config(EXAMPLE_CONFIG)
    assert cfg.corpus_dir == CORPUS_DIR
    assert (cfg.B, cfg.K, cfg.schedule_T, cfg.schedule_s) == (40, 8, 100, 0.008)
    assert cfg.denoiser == DenoiserHyperparams.toy()
    assert cfg.denoiser.epochs == 30
    assert (cfg.train_seed, cfg.features, cfg.rules) == (1, FeatureFlags(), RuleConfig())


_PROFILE = {"voice": 0, "central": "E4", "low": "C4", "high": "G5"}


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda c: [c], "must hold a JSON object"),
        (lambda c: {**c, "master_seed": "abc"}, "'master_seed' must be an integer, not 'abc'"),
        (lambda c: {**c, "master_seed": -3}, "'master_seed' must be a non-negative integer, not -3"),
        (lambda c: {**c, "train_seed": -2}, "'train_seed' must be a non-negative integer, not -2"),
        (lambda c: {**c, "layers": 2.5}, "'layers' must be an integer"),
        (lambda c: {**{k: v for k, v in c.items() if k != "epochs"}, "epoch": 30}, "config has unknown key 'epoch'"),
        (lambda c: {**c, "features": {"pitch": True}}, "features has unknown key 'pitch'"),
        (lambda c: {**c, "rules": {"parallel": True}}, "rules has unknown key 'parallel'"),
        (lambda c: {**c, "rules": {"repetition_threshold": "4"}}, "'repetition_threshold' must be an integer"),
        (lambda c: {**c, "home_key": {"mode": "major"}}, "home_key is missing required key 'tonic'"),
        (lambda c: {**c, "home_key": {"tonic": "", "mode": "major"}}, "not a valid major-key"),
        *(
            (lambda c, key=key: {**c, "voice_profiles": [{k: v for k, v in _PROFILE.items() if k != key}]},
             f"voice_profiles[0] is missing required key '{key}'")
            for key in ("central", "low", "high")
        ),
        *(
            (lambda c, key=key: {**c, key: 0}, f"{key} must be at least 1, not 0")
            for key in ("heads", "hidden_dim", "batch_size", "epochs")
        ),
        (lambda c: {**c, "schedule_s": -1}, "schedule_s must not be -1"),
    ],
    ids=[
        "list", "string-seed", "negative-master-seed", "negative-train-seed", "float-layers", "misspelt-epochs", "unknown-feature", "unknown-rule", "string-threshold",
        "no-tonic", "empty-tonic", "no-central", "no-low", "no-high",
        "zero-heads", "zero-hidden-dim", "zero-batch-size", "zero-epochs", "schedule-s-minus-one",
    ],
)
def test_bad_config_exits_validation(tmp_path, capsys, edit, message):
    # train reads every config key, the schedule's included, before it
    # trains or writes anything.
    path = write_config(tmp_path)
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    assert main(["train", "--config", str(path)]) == 1
    assert not (tmp_path / "out").exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_ingest(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["ingest", "--config", str(path)]) == 0
    summary = json.loads((tmp_path / "out" / "ingest.json").read_text())
    assert summary["phrase_count"] == 20
    assert abs(sum(summary["marginals"].values()) - 1.0) < 1e-9


def test_ingest_empty_dir(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    path = write_config(tmp_path, corpus_dir=str(empty))
    assert main(["ingest", "--config", str(path)]) == 1


def _corpus_document(edit):
    """The first corpus phrase file as JSON text, after edit(doc)."""
    doc = json.loads(sorted(CORPUS_DIR.glob("*.phrase.json"))[0].read_text())
    edit(doc)
    return json.dumps(doc)


@pytest.mark.parametrize(
    "document,message",
    [
        ("{ nope", "malformed JSON"),
        (_corpus_document(lambda d: d["events"][0].pop("onset")), "event 0 is missing required key 'onset'"),
        (_corpus_document(lambda d: d["events"][0].update(degree=5)), "key 'degree' must be a string"),
        (_corpus_document(lambda d: d.update(events=3)), "key 'events' must be a JSON list"),
        (_corpus_document(lambda d: d.update(structural=[[1]])), "malformed structural edge list"),
        (_corpus_document(lambda d: d.update(meter=[4.5, 4])), "meter must be a list of two integers"),
        (_corpus_document(lambda d: d.update(meter=[True, 4])), "meter must be a list of two integers"),
        (_corpus_document(lambda d: d.update(voices=[1, 2])), "voices must be strings"),
        (_corpus_document(lambda d: d.update(cadence=5)), "key 'cadence' must be a string"),
        (_corpus_document(lambda d: d.update(structural=[[0, 999]])), "references a missing event"),
    ],
    ids=[
        "invalid-json", "no-onset", "int-degree", "int-events", "short-structural-edge",
        "float-meter", "bool-meter", "int-voices", "int-cadence", "missing-event-structural",
    ],
)
def test_ingest_invalid_phrase_reports_file(tmp_path, capsys, document, message):
    bad_dir = tmp_path / "bad"
    bad_dir.mkdir()
    (bad_dir / "broken.phrase.json").write_text(document)
    path = write_config(tmp_path, corpus_dir=str(bad_dir))
    assert main(["ingest", "--config", str(path)]) == 1
    out, err = capsys.readouterr()
    assert "broken.phrase.json" in err and message in err
    assert "Traceback" not in out + err


def test_train_generate_fuse_render(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["train", "--config", str(path)]) == 0
    out = tmp_path / "out"
    assert (out / "checkpoint.npz").exists()
    loss_rows = (out / "loss.csv").read_text().strip().splitlines()
    assert len(loss_rows) == 3  # exactly `epochs` rows
    assert "parameters:" in capsys.readouterr().out

    assert main(["generate", "--config", str(path)]) == 0
    report = json.loads((out / "generation_report.json").read_text())
    assert report["B"] == 2
    assert report["accepted"] + report["rejected"] == 2
    emitted = list((out / "accepted").glob("*.phrase.json")) + list(
        (out / "rejected").glob("*.phrase.json")
    )
    assert len(emitted) == 2

    # The shipped corpus is a feasible library for the 3-line template.
    assert main(["fuse", "--config", str(path), "--library", str(CORPUS_DIR)]) == 0
    assert (out / "score.mid").exists()
    plan = json.loads((out / "plan.json").read_text())
    assert len(plan["phrase_indices"]) == 3

    assert main(["render", str(out / "score.json"), "--out", str(out / "render.mid")]) == 0
    assert (out / "render.mid").read_bytes() == (out / "score.mid").read_bytes()


def test_ingest_dump_graphs(tmp_path):
    path = write_config(tmp_path)
    assert main(["ingest", "--config", str(path), "--dump-graphs"]) == 0
    lines = (tmp_path / "out" / "graphs.jsonl").read_text().strip().splitlines()
    assert len(lines) == 20
    listing = json.loads(lines[0])
    assert set(listing) == {"nodes", "edges", "r_names", "phrase"}
    assert all(e["class"] != "none" for e in listing["edges"])


def test_generate_emits_violation_report(tmp_path):
    path = write_config(tmp_path)
    assert main(["train", "--config", str(path)]) == 0
    assert main(["generate", "--config", str(path)]) == 0
    report_path = tmp_path / "out" / "violations.jsonl"
    assert report_path.exists()
    for line in report_path.read_text().splitlines():
        record = json.loads(line)
        assert {"phrase", "rule", "onset", "voices", "description"} <= set(record)


def test_plan_and_loss_files_reread(tmp_path):
    path = write_config(tmp_path)
    assert main(["train", "--config", str(path)]) == 0
    history = read_loss_csv(tmp_path / "out" / "loss.csv")
    assert [h[0] for h in history] == [1, 2, 3]
    assert main(["fuse", "--config", str(path), "--library", str(CORPUS_DIR)]) == 0
    plan = json.loads((tmp_path / "out" / "plan.json").read_text())
    assert len(plan["phrase_indices"]) == 3
    assert plan["pivots"][0] is None


def test_train_deterministic_csv(tmp_path):
    path = write_config(tmp_path)
    assert main(["train", "--config", str(path)]) == 0
    first = (tmp_path / "out" / "loss.csv").read_bytes()
    assert main(["train", "--config", str(path)]) == 0
    assert (tmp_path / "out" / "loss.csv").read_bytes() == first


def test_generate_incompatible_checkpoint(tmp_path):
    path = write_config(tmp_path)
    assert main(["train", "--config", str(path)]) == 0
    bad = write_config(tmp_path, hidden_dim=32, heads=4)
    bad_named = tmp_path / "config2.json"
    bad_named.write_text(bad.read_text())
    assert (
        main(
            ["generate", "--config", str(bad_named), "--checkpoint",
             str(tmp_path / "out" / "checkpoint.npz")]
        )
        == 1
    )


@pytest.mark.parametrize("command", ["ingest", "render"])
def test_unwritable_output_path_exits_validation(tmp_path, capsys, command):
    # An output path under a regular file or a missing directory is refused
    # with exit 1, naming the path, not as an internal failure (exit 3).
    path = write_config(tmp_path)
    if command == "ingest":
        (tmp_path / "a-file").write_text("")
        target = tmp_path / "a-file" / "sub"
        argv = ["ingest", "--config", str(path), "--out", str(target)]
    else:
        assert main(["fuse", "--config", str(path), "--library", str(CORPUS_DIR)]) == 0
        target = tmp_path / "missing" / "dir" / "x.mid"
        argv = ["render", str(tmp_path / "out" / "score.json"), "--out", str(target)]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(target) in err
    assert "Traceback" not in err


def test_fuse_infeasible_exit_code(tmp_path):
    # A library with a single phrase cannot satisfy three slots.
    lib = tmp_path / "lib"
    lib.mkdir()
    src = sorted(CORPUS_DIR.glob("01_*.phrase.json"))[0]
    (lib / src.name).write_text(src.read_text())
    path = write_config(tmp_path)
    assert main(["fuse", "--config", str(path), "--library", str(lib)]) == 2


def test_seed_overrides_the_master_seed_where_read(tmp_path, capsys):
    # generate --seed N runs as a config with master_seed N would; train
    # reads train_seed, not the master seed, so it refuses the flag.
    path = write_config(tmp_path)
    assert main(["train", "--config", str(path)]) == 0
    ckpt = str(tmp_path / "out" / "checkpoint.npz")
    seeded = write_config(tmp_path, master_seed=5)
    runs = []
    for name, argv in (("flag", [str(path), "--seed", "5"]), ("config", [str(seeded)])):
        out = tmp_path / name
        assert main(["generate", "--config", *argv, "--checkpoint", ckpt, "--out", str(out)]) == 0
        runs.append((out / "generation_report.json").read_text())
    assert runs[0] == runs[1] and json.loads(runs[0])["master_seed"] == 5
    capsys.readouterr()
    assert main(["train", "--config", str(path), "--seed", "3", "--out", str(tmp_path / "train")]) == 1
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
    assert not (tmp_path / "train").exists()


@pytest.mark.parametrize("command", ["generate", "fuse"])
def test_negative_seed_flag_exits_validation(tmp_path, capsys, command):
    # numpy's generators take no negative seed; the flag is refused before
    # the command reads anything else.
    out = tmp_path / "out"
    argv = [command, "--config", str(write_config(tmp_path)), "--seed", "-5", "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: --seed must be a non-negative integer, not -5\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [["train", "--bogus"], ["render"], []])
def test_usage_error_exits_validation(capsys, argv):
    # argparse ends a bad command line with exit 2, which the CLI keeps for
    # an infeasible fusion; a usage error is a validation error.
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: gradus") and "error:" in err


@pytest.mark.parametrize("argv", [["-h"], ["fuse", "--help"]])
def test_help_exits_ok(capsys, argv):
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("usage: gradus")


def test_render_degree_only_score(tmp_path):
    from gradus.fusion import Score, score_to_dict
    from gradus.phrase import parse_phrase

    phrase = parse_phrase(sorted(CORPUS_DIR.glob("*.phrase.json"))[0].read_text())
    score = Score(home_key=phrase.key, phrases=(phrase,))
    target = tmp_path / "score.json"
    target.write_text(json.dumps(score_to_dict(score)))
    assert main(["render", str(target)]) == 1


def test_missing_config_file(tmp_path):
    assert main(["ingest", "--config", str(tmp_path / "nope.json")]) == 1


def test_generate_rejects_each_phrase_once(tmp_path, monkeypatch):
    # One rejection and one hard-rule evaluation per phrase: the violations
    # listed for a phrase are the ones its rejection found. Both functions
    # are counted in every gradus module that binds them.
    import sys

    import gradus.rules

    path = write_config(tmp_path, B=6, K=2)
    assert main(["train", "--config", str(path)]) == 0
    calls = {"reject": 0, "all_violations": 0}
    for key in calls:
        fn = getattr(gradus.rules, key)
        for name, module in list(sys.modules.items()):
            if name.partition(".")[0] == "gradus" and getattr(module, key, None) is fn:
                monkeypatch.setattr(module, key, counting(calls, key, fn))
    assert main(["generate", "--config", str(path)]) == 0

    out = tmp_path / "out"
    phrases = json.loads((out / "generation_report.json").read_text())["phrases"]
    hard = {
        name for name, r in phrases.items()
        if not r["accepted"] and r["reasons"] != ["no harmonic reading"]
    }
    assert hard, "the seed should give a phrase that breaks a hard rule"
    assert calls == {"reject": 6, "all_violations": 6}
    listed = [json.loads(line)["phrase"] for line in (out / "violations.jsonl").read_text().splitlines()]
    assert {name: listed.count(name) for name in phrases} == {
        name: len(r["reasons"]) if name in hard else 0 for name, r in phrases.items()
    }


_SLOT = {"local_key": "I", "cadence": "perfect_authentic", "final_treble_degree": "1"}


@pytest.mark.parametrize(
    "document,message",
    [
        (None, "cannot read templates"),
        ("{ nope", "cannot read templates"),
        *(
            (json.dumps([{"slots": [_SLOT, {k: v for k, v in _SLOT.items() if k != key}]}]),
             f"template 0 slot 1 has no '{key}'")
            for key in _SLOT
        ),
        (json.dumps({"slots": [_SLOT, _SLOT]}), "must hold a JSON list"),
        (json.dumps([[_SLOT, _SLOT]]), "template 0 has no slot list"),
        (json.dumps([_SLOT, {**_SLOT, "local_key": [1]}]), "bad local_key in template 0 slot 1"),
        (json.dumps([_SLOT, {**_SLOT, "final_treble_degree": 1}]), "bad final_treble_degree"),
        (json.dumps([_SLOT, {**_SLOT, "local_key": True}]), "bad local_key in template 0 slot 1"),
    ],
    ids=[
        "missing-file", "invalid-json", "no-local-key", "no-cadence", "no-final-treble",
        "object", "slot-list-unnamed", "list-local-key", "int-treble", "bool-local-key",
    ],
)
def test_fuse_bad_templates_exit_validation(tmp_path, capsys, document, message):
    templates = tmp_path / "templates.json"
    if document is not None:
        templates.write_text(document)
    path = write_config(tmp_path, templates_path=str(templates))
    assert main(["fuse", "--config", str(path), "--library", str(CORPUS_DIR)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_generation_report_counts_rejections(tmp_path):
    # The report counts the rejected phrases by class (a hard rule, or no
    # harmonic reading) and the located violations by rule, as the per
    # phrase reasons and violations.jsonl list them.
    path = write_config(tmp_path, B=6, K=2)
    assert main(["train", "--config", str(path)]) == 0
    assert main(["generate", "--config", str(path)]) == 0
    out = tmp_path / "out"
    report = json.loads((out / "generation_report.json").read_text())
    rejected = [r for r in report["phrases"].values() if not r["accepted"]]
    no_reading = sum(r["reasons"] == ["no harmonic reading"] for r in rejected)
    assert report["rejected_by"] == {
        "hard rule": len(rejected) - no_reading, "no harmonic reading": no_reading,
    }
    assert report["rejected_by"]["hard rule"] > 0
    assert sum(report["rejected_by"].values()) == report["rejected"]
    rules = [json.loads(line)["rule"] for line in (out / "violations.jsonl").read_text().splitlines()]
    assert report["violations_by_rule"] == {rule: rules.count(rule) for rule in sorted(set(rules))}


def test_first_forward_loads_scipys_erf_extension_alone(tmp_path):
    """ingest, fuse and render load nothing of scipy.special. The first
    denoiser forward pass loads only the extension that defines erf, not
    the package nor the OpenBLAS under scipy.libs that its ``_ufuncs``
    links; a later ``import scipy.special`` hands out that same erf. A
    fresh interpreter, since the denoiser oracle imports scipy.special
    into this one."""
    script = textwrap.dedent("""
        import importlib.util
        import sys
        from pathlib import Path

        import numpy as np

        import gradus
        from gradus import denoiser
        from gradus.cli import main

        def special():
            return sorted(m for m in sys.modules if m.split(".")[:2] == ["scipy", "special"])

        config, corpus, out = sys.argv[1:]
        assert main(["ingest", "--config", config, "--out", out + "/ingest"]) == 0
        assert main(["fuse", "--config", config, "--library", corpus, "--out", out + "/fuse"]) == 0
        assert main(["render", out + "/fuse/score.json", "--out", out + "/render.mid"]) == 0
        assert special() == [], "loaded before any forward pass: %s" % special()

        graph = gradus.build_graph(gradus.phrase.load_corpus(corpus)[0])
        den = gradus.Denoiser(gradus.DenoiserHyperparams.toy())
        params = den.init_params(np.random.default_rng(0), graph.R.shape[1])
        den.forward(graph, 1, params)
        assert special() == ["scipy.special._special_ufuncs"], special()
        if sys.platform.startswith("linux"):
            scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
            libs = str(Path(scipy_dir).parent / "scipy.libs") + "/"
            mapped = sorted({line.split()[-1] for line in open("/proc/self/maps") if libs in line})
            assert mapped == [], mapped

        import scipy.special
        assert scipy.special.erf is denoiser._erf()
    """)
    src = Path(gradus.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", script, str(EXAMPLE_CONFIG), str(CORPUS_DIR), str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
