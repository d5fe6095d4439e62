"""Pipeline commands: ingest, train, generate, fuse, render.

Exit codes: 0 success (also after -h), 1 validation error or a bad
command line, 2 fusion infeasible, 3 internal invariant failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import RunConfig, check_seed, load_config
from .denoiser import (
    Checkpoint,
    Denoiser,
    load_checkpoint,
    param_count,
    save_checkpoint,
    train,
    write_loss_csv,
)
from .errors import (
    CheckpointError,
    FusionInfeasibleError,
    GradusError,
    PhraseParseError,
)
from .fusion import (
    default_profiles,
    default_templates,
    fuse,
    sample_structure,
    score_from_dict,
    score_to_dict,
    templates_from_json,
)
from .graph import build_graph, graph_to_adjacency
from .library import PhraseLibrary
from .midi import write_midi
from .phrase import Phrase, load_corpus, parse_phrase, serialize_phrase
from .pitch import DEGREES
from .rules import NO_READING, ProgressionGrammar, reject
from .sampler import GuidanceConfig, generate_library
from .schedule import NoiseSchedule, marginals

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_FUSION = 2
EXIT_INTERNAL = 3


def _schedule(config: RunConfig) -> NoiseSchedule:
    return NoiseSchedule(T=config.schedule_T, s=config.schedule_s)


def cmd_ingest(config: RunConfig, out_dir: Path, dump_graphs: bool = False) -> int:
    files = sorted(config.corpus_dir.glob("*.phrase.json"))
    if not files:
        print(f"error: no *.phrase.json files in {config.corpus_dir}", file=sys.stderr)
        return EXIT_VALIDATION
    phrases: list[Phrase] = []
    failures = []
    for f in files:
        try:
            phrases.append(parse_phrase(f.read_text()))
        except GradusError as exc:
            failures.append((f.name, str(exc)))
    if failures:
        for name, msg in failures:
            print(f"invalid phrase {name}: {msg}", file=sys.stderr)
        return EXIT_VALIDATION
    m = marginals(phrases)
    if dump_graphs:
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "graphs.jsonl", "w") as fh:
            for f, p in zip(files, phrases):
                listing = graph_to_adjacency(build_graph(p, config.features))
                listing["phrase"] = f.name
                fh.write(json.dumps(listing) + "\n")
    voice_counts: dict[str, int] = {}
    for p in phrases:
        for v in p.voices:
            voice_counts[v] = voice_counts.get(v, 0) + 1
    summary = {
        "phrase_count": len(phrases),
        "event_count": sum(len(p.events) for p in phrases),
        "marginals": {str(DEGREES[i]): float(m[i]) for i in range(len(m))},
        "voices": voice_counts,
        "meters": sorted({f"{p.meter[0]}/{p.meter[1]}" for p in phrases}),
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "ingest.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(f"ingested {len(phrases)} phrases -> {out_dir / 'ingest.json'}")
    return EXIT_OK


def cmd_train(config: RunConfig, out_dir: Path) -> int:
    phrases = load_corpus(config.corpus_dir)
    graphs = [build_graph(p, config.features) for p in phrases]
    schedule = _schedule(config)
    m = marginals(phrases)
    denoiser = Denoiser(config.denoiser)
    rng = np.random.default_rng(config.train_seed)
    result = train(denoiser, graphs, schedule, m, rng)
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt = Checkpoint(
        hp=config.denoiser,
        params=result.params,
        marginal=m,
        r_names=config.features.names,
        schedule_T=config.schedule_T,
        schedule_s=config.schedule_s,
    )
    save_checkpoint(out_dir / "checkpoint.npz", ckpt)
    write_loss_csv(out_dir / "loss.csv", result.history)
    print(f"parameters: {param_count(result.params)}")
    print(
        f"epochs: {len(result.history)}  final train loss: "
        f"{result.history[-1][1]:.4f}  final val loss: {result.history[-1][2]:.4f}"
    )
    print(f"checkpoint -> {out_dir / 'checkpoint.npz'}")
    return EXIT_OK


def _check_compatibility(config: RunConfig, ckpt: Checkpoint) -> None:
    mismatches = []
    if ckpt.schedule_T != config.schedule_T or ckpt.schedule_s != config.schedule_s:
        mismatches.append("noise schedule")
    if ckpt.r_names != config.features.names:
        mismatches.append("rhythm feature flags")
    hp, chp = config.denoiser, ckpt.hp
    if (hp.layers, hp.hidden_dim, hp.heads, hp.T) != (chp.layers, chp.hidden_dim, chp.heads, chp.T):
        mismatches.append("denoiser architecture")
    if mismatches:
        raise CheckpointError("checkpoint incompatible with config: " + ", ".join(mismatches))


def cmd_generate(config: RunConfig, checkpoint_path: Path, out_dir: Path) -> int:
    ckpt = load_checkpoint(checkpoint_path)
    _check_compatibility(config, ckpt)
    corpus = load_corpus(config.corpus_dir)
    schedule = _schedule(config)
    denoiser = Denoiser(ckpt.hp)
    gcfg = GuidanceConfig(K=config.K, seed=config.master_seed)
    phrases = generate_library(
        corpus,
        denoiser,
        ckpt.params,
        schedule,
        ckpt.marginal,
        config.B,
        gcfg,
        skeleton_mode=config.skeleton_mode,
        measures=config.measures,
        rule_config=config.rules,
        flags=config.features,
    )
    accepted_dir = out_dir / "accepted"
    rejected_dir = out_dir / "rejected"
    accepted_dir.mkdir(parents=True, exist_ok=True)
    rejected_dir.mkdir(parents=True, exist_ok=True)
    results = {}
    rejected_by = {"hard rule": 0, NO_READING: 0}
    violations_by_rule: dict[str, int] = {}
    with open(out_dir / "violations.jsonl", "w") as violations_fh:
        for i, p in enumerate(phrases):
            res = reject(p, config=config.rules)
            name = f"phrase_{i:03d}.phrase.json"
            target = accepted_dir if res.accepted else rejected_dir
            (target / name).write_text(serialize_phrase(p))
            results[name] = {"accepted": res.accepted, "reasons": list(res.reasons)}
            if not res.accepted:
                rejected_by["hard rule" if res.violations else NO_READING] += 1
            for v in res.violations:
                violations_by_rule[v.rule] = violations_by_rule.get(v.rule, 0) + 1
                violations_fh.write(
                    json.dumps(
                        {
                            "phrase": name,
                            "rule": v.rule,
                            "onset": str(v.onset),
                            "voices": list(v.voices),
                            "description": v.description,
                        }
                    )
                    + "\n"
                )
    accepted = sum(1 for r in results.values() if r["accepted"])
    rate = (len(results) - accepted) / len(results)
    report = {
        "B": config.B,
        "K": config.K,
        "master_seed": config.master_seed,
        "accepted": accepted,
        "rejected": len(results) - accepted,
        "rejection_rate": rate,
        "rejected_by": rejected_by,
        "violations_by_rule": dict(sorted(violations_by_rule.items())),
        "phrases": results,
    }
    (out_dir / "generation_report.json").write_text(json.dumps(report, indent=2) + "\n")
    print(f"accepted {accepted}/{config.B} phrases (rejection rate {rate:.1%})")
    return EXIT_OK


def cmd_fuse(config: RunConfig, library_dir: Path, out_dir: Path) -> int:
    phrases = load_corpus(library_dir)
    library, _ = PhraseLibrary.build(phrases, config=config.rules)
    if len(library) == 0:
        raise FusionInfeasibleError(1, "library has no accepted phrases")
    if config.templates_path is not None:
        try:
            data = json.loads(config.templates_path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise PhraseParseError(f"cannot read templates {config.templates_path}: {exc}") from exc
        templates = templates_from_json(data)
    else:
        templates = default_templates()
    rng = np.random.default_rng(config.master_seed)
    template = sample_structure(templates, rng)
    voices = library[0][0].voices
    profiles = config.voice_profiles or default_profiles(voices)
    score, plan = fuse(
        template, library, profiles, grammar=ProgressionGrammar(), rng=rng,
        home=config.home_key, rule_config=config.rules,
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "score.json").write_text(json.dumps(score_to_dict(score), indent=2) + "\n")
    (out_dir / "plan.json").write_text(json.dumps(plan.to_dict(), indent=2) + "\n")
    write_midi(score, out_dir / "score.mid")
    print(f"fused {len(score.phrases)} phrases -> {out_dir / 'score.mid'}")
    return EXIT_OK


def cmd_render(score_path: Path, out_path: Path) -> int:
    try:
        obj = json.loads(score_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise PhraseParseError(f"cannot read score {score_path}: {exc}") from exc
    score = score_from_dict(obj)
    write_midi(score, out_path)
    print(f"rendered -> {out_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradus",
        description="Generate, filter, and fuse musical phrases by graph diffusion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("ingest", "validate a phrase corpus and write its statistics"),
        ("train", "train the denoiser on a corpus"),
        ("generate", "sample a phrase library from a checkpoint"),
        ("fuse", "fuse an accepted library into a structured score"),
        ("render", "render a realized score JSON to MIDI"),
    ):
        p = sub.add_parser(name, help=helptext)
        if name != "render":
            p.add_argument("--config", required=True, help="run config JSON")
        if name in ("generate", "fuse"):
            p.add_argument("--seed", type=int, default=None, help="override the master seed")
        p.add_argument("--out", default=None, help="override the output directory")
        if name == "ingest":
            p.add_argument(
                "--dump-graphs", action="store_true",
                help="write a JSON adjacency listing per phrase to graphs.jsonl",
            )
        if name == "generate":
            p.add_argument("--checkpoint", default=None, help="checkpoint path")
        if name == "fuse":
            p.add_argument("--library", default=None, help="accepted phrase directory")
        if name == "render":
            p.add_argument("score", help="realized score JSON")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 0 after -h, 2 on a usage error
        return EXIT_OK if not exc.code else EXIT_VALIDATION
    try:
        if args.command == "render":
            out = Path(args.out) if args.out else Path(args.score).with_suffix(".mid")
            return cmd_render(Path(args.score), out)
        config = load_config(args.config)
        if getattr(args, "seed", None) is not None:
            config = replace(config, master_seed=check_seed(args.seed, "--seed"))
        out_dir = Path(args.out) if args.out else config.out_dir
        if args.command == "ingest":
            return cmd_ingest(config, out_dir, dump_graphs=args.dump_graphs)
        if args.command == "train":
            return cmd_train(config, out_dir)
        if args.command == "generate":
            ckpt = Path(args.checkpoint) if args.checkpoint else config.out_dir / "checkpoint.npz"
            return cmd_generate(config, ckpt, out_dir)
        if args.command == "fuse":
            lib = Path(args.library) if args.library else config.out_dir / "accepted"
            return cmd_fuse(config, lib, out_dir)
        raise AssertionError(f"unhandled command {args.command}")
    except FusionInfeasibleError as exc:
        print(f"fusion infeasible at slot {exc.slot_index}: {exc}", file=sys.stderr)
        return EXIT_FUSION
    except GradusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
