"""CLI dispatch: subcommands, exit codes, dry runs, determinism."""

import json
import math
import os
import sqlite3
import subprocess
import sys
from contextlib import closing
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import CACHE_FAULTS, RELAY_FAULTS, break_cache
from test_acceptance import _random_trace
from test_rewards import GarblingJudge, _ref_total_reward

from claimkit import cli, rewards
from claimkit.backends import DecodingParams, DiskCache, MemoryCache, prompt_digest, transport
from claimkit.backends.embeddings import EMBED_CHUNK
from claimkit.cli import dispatch
from claimkit.corpus import ClaimRecord, Label, ingest_claims, write_claims
from claimkit.funnel import FunnelConfig, FunnelReport, RuleThresholds, rule_filter, silver_stage
from claimkit.mock import HashEmbeddingBackend, HashJudgeBackend, HashVerifierBackend
from claimkit.rewards import (
    Labeled,
    RewardBackends,
    Unlabeled,
    group_advantages,
    pseudo_label,
    total_reward,
)
from claimkit.synthetic import funnel_corpus, holdout_corpus
from claimkit.trace import parse_trace

VALID_TRACE = (
    "<think>plan</think>\n"
    "<question>Did she move to Paris?</question>\n"
    "<answer>Yes, the document says Paris.</answer>\n"
    "<question>Was the year 1921?</question>\n"
    "<answer>Yes, 1921.</answer>\n"
    "<verification>{verdict}</verification>"
)


@pytest.fixture(scope="module")
def corpus_files(tmp_path_factory):
    # Written once and only read: generating the corpus dominates test setup.
    records = funnel_corpus()
    holdout = holdout_corpus(records)
    corpus_dir = tmp_path_factory.mktemp("corpus")
    claims = corpus_dir / "claims.jsonl"
    hold = corpus_dir / "holdout.jsonl"
    write_claims(records, claims)
    write_claims(holdout, hold)
    return claims, hold


@pytest.fixture()
def funnel_config(tmp_path, corpus_files):
    claims, hold = corpus_files
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "inputs": [str(claims)],
        "holdouts": [str(hold)],
        "budget": 10,
        "seed": 3,
        "cache_dir": str(tmp_path / "cache"),
    }))
    return cfg


class TestFunnelCommands:
    def test_run_and_report(self, tmp_path, funnel_config, capsys):
        out = tmp_path / "out.jsonl"
        report = tmp_path / "report.json"
        code = dispatch(["funnel", "run", "--config", str(funnel_config),
                         "--out", str(out), "--report", str(report)])
        assert code == 0
        assert out.exists() and report.exists()
        records = ingest_claims(out)
        assert all(r.silver_question_count >= 2 for r in records)

        code = dispatch(["funnel", "report", "--report", str(report)])
        assert code == 0
        text = capsys.readouterr().out
        assert "rule_filter" in text and "augment" in text

    def test_empty_holdout_fails_before_any_backend_call(self, tmp_path, funnel_config,
                                                         monkeypatch, capsys):
        calls = []
        for backend, method in ((HashEmbeddingBackend, "embed_texts"),
                                (HashJudgeBackend, "generate"),
                                (HashVerifierBackend, "probability_supported")):
            monkeypatch.setattr(backend, method, lambda *args, method=method: calls.append(method))
        config = dict(json.loads(funnel_config.read_text()),
                      holdouts=[_write_lines(tmp_path / "h.jsonl", [])])
        funnel_config.write_text(json.dumps(config))
        argv = ["funnel", "run", "--config", str(funnel_config),
                "--out", str(tmp_path / "out.jsonl"), "--report", str(tmp_path / "r.json")]
        capsys.readouterr()
        for dry_run in (["--dry-run"], []):
            assert dispatch(argv + dry_run) == 1
            assert capsys.readouterr().err == (
                "error: stage decontaminate: holdout must be non-empty\n")
        assert calls == [] and not (tmp_path / "cache").exists()

    def test_workers_byte_identical(self, tmp_path, funnel_config):
        outs = []
        for workers in ("1", "8"):
            out = tmp_path / f"out{workers}.jsonl"
            report = tmp_path / f"report{workers}.json"
            assert dispatch(["funnel", "run", "--config", str(funnel_config),
                             "--out", str(out), "--report", str(report),
                             "--workers", workers]) == 0
            outs.append((out.read_bytes(), report.read_bytes()))
        assert outs[0] == outs[1]

    def test_config_cache_dir_used_unless_flag_given(self, tmp_path, funnel_config,
                                                     monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["funnel", "run", "--config", str(funnel_config),
                "--out", "out.jsonl", "--report", "report.json"]
        assert dispatch(argv) == 0
        assert any((tmp_path / "cache").iterdir())
        assert not (tmp_path / ".claimkit-cache").exists()
        assert dispatch(argv + ["--cache-dir", "flag-cache"]) == 0
        assert any((tmp_path / "flag-cache").iterdir())

    @pytest.mark.parametrize("flag, seed", [([], 3), (["--seed", "0"], 0), (["--seed", "5"], 5)])
    def test_seed_flag_overrides_config(self, tmp_path, monkeypatch, flag, seed):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"inputs": ["unread.jsonl"], "budget": 2, "seed": 3}))
        seen = []

        def fake_run(config, **_):
            seen.append(config.seed)
            return [], FunnelReport()

        monkeypatch.setattr("claimkit.cli.run_funnel", fake_run)
        assert dispatch(["funnel", "run", "--config", str(cfg),
                         "--out", str(tmp_path / "o.jsonl"),
                         "--report", str(tmp_path / "r.json")] + flag) == 0
        assert seen == [seed]

    def test_ner_spec_selects_nothing(self, tmp_path, funnel_config):
        # "heuristic" and "mock" both name the one built-in entity counter
        outs = []
        for ner in (None, "heuristic", "mock"):
            cfg = json.loads(funnel_config.read_text())
            if ner is not None:
                cfg["backends"] = {"ner": ner}
            path = tmp_path / f"cfg-{ner}.json"
            path.write_text(json.dumps(cfg))
            out, report = tmp_path / f"out-{ner}.jsonl", tmp_path / f"report-{ner}.json"
            assert dispatch(["funnel", "run", "--config", str(path),
                             "--out", str(out), "--report", str(report)]) == 0
            outs.append((out.read_bytes(), report.read_bytes()))
        assert outs[0] == outs[1] == outs[2]

    def test_dry_run_touches_nothing(self, tmp_path, funnel_config):
        out = tmp_path / "out.jsonl"
        code = dispatch(["funnel", "run", "--config", str(funnel_config),
                         "--out", str(out), "--report", str(tmp_path / "r.json"),
                         "--dry-run"])
        assert code == 0
        assert not out.exists()

    @pytest.mark.parametrize("body, line", [
        ({}, "error: report is not a JSON object with a 'stages' array"),
        ([], "error: report is not a JSON object with a 'stages' array"),
        ({"stages": [5]}, "error: report stage 0 needs a string 'name' and counts that are "
                          "whole numbers"),
        ({"stages": [{"name": "a", "input_count": 5, "output_count": 5},
                     {"name": "b", "output_count": 3}]},
         "error: report stage 1 needs a string 'name' and counts that are whole numbers"),
        ({"stages": [{"name": "a", "input_count": "5", "output_count": 3}]},
         "error: report stage 0 needs a string 'name' and counts that are whole numbers"),
        ({"stages": [{"name": "a", "input_count": 5, "output_count": 3,
                      "rejections": {"too-short": 1}}]},
         "error: stage 'a': input 5 minus 1 rejections != output 3"),
    ])
    def test_malformed_report_is_one_error_line(self, tmp_path, capsys, body, line):
        report = tmp_path / "r.json"
        report.write_text(json.dumps(body))
        assert dispatch(["funnel", "report", "--report", str(report)]) == 1
        assert capsys.readouterr().err.splitlines() == [line]

    def test_missing_config_is_failure(self, tmp_path):
        code = dispatch(["funnel", "run", "--config", str(tmp_path / "nope.json"),
                         "--out", "o", "--report", "r"])
        assert code == 1


class TestStandaloneStages:
    def test_dedup(self, tmp_path, corpus_files, capsys):
        claims, _ = corpus_files
        out = tmp_path / "dd.jsonl"
        assert dispatch(["dedup", "--claims", str(claims), "--out", str(out),
                         "--cache-dir", str(tmp_path / "c")]) == 0
        assert len(ingest_claims(out)) < 200

    def test_decontaminate(self, tmp_path, corpus_files):
        claims, hold = corpus_files
        out = tmp_path / "dc.jsonl"
        assert dispatch(["decontaminate", "--claims", str(claims),
                         "--holdout", str(hold), "--out", str(out),
                         "--cache-dir", str(tmp_path / "c")]) == 0
        kept_ids = {r.id for r in ingest_claims(out)}
        hold_claims = {r.claim for r in ingest_claims(hold)}
        assert all(r.claim not in hold_claims for r in ingest_claims(out)
                   if r.id in kept_ids)

    def test_select_respects_budget(self, tmp_path, corpus_files):
        claims, _ = corpus_files
        out = tmp_path / "sel.jsonl"
        assert dispatch(["select", "--claims", str(claims), "--budget", "12",
                         "--out", str(out), "--cache-dir", str(tmp_path / "c")]) == 0
        selected = ingest_claims(out)
        assert len(selected) == 12
        supported = sum(1 for r in selected if r.label is Label.SUPPORTED)
        assert abs(supported - (len(selected) - supported)) <= 1

    def test_select_malformed_embedding_reply(self, tmp_path, loopback, capsys):
        claims = tmp_path / "claims.jsonl"
        write_claims([ClaimRecord(id=f"c{i}", claim=f"claim {i}", evidence=["e"], source="s",
                                  label=label) for i, label in enumerate(Label)], claims)
        loopback.reply = (200, b"[]")
        assert dispatch(["select", "--claims", str(claims), "--budget", "2",
                         "--out", str(tmp_path / "sel.jsonl"), "--embedding", loopback.url,
                         "--cache-dir", str(tmp_path / "c")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: backend:")


class TestScoring:
    def _write_score_inputs(self, tmp_path, corpus_files, group=False):
        claims_path, _ = corpus_files
        records = [r.with_silver_count(2) for r in ingest_claims(claims_path)[:3]]
        claims = tmp_path / "scored-claims.jsonl"
        write_claims(records, claims)
        traces = tmp_path / "traces.jsonl"
        with open(traces, "w") as fh:
            for r in records:
                if group:
                    for g in range(4):
                        verdict = r.label.value if g < 3 else (
                            "Refuted" if r.label is Label.SUPPORTED else "Supported")
                        fh.write(json.dumps(
                            {"id": r.id, "trace": VALID_TRACE.format(verdict=verdict)}) + "\n")
                else:
                    fh.write(json.dumps(
                        {"id": r.id, "trace": VALID_TRACE.format(verdict=r.label.value)}) + "\n")
        return claims, traces

    def test_score_labeled(self, tmp_path, corpus_files):
        claims, traces = self._write_score_inputs(tmp_path, corpus_files)
        out = tmp_path / "rewards.jsonl"
        assert dispatch(["score", "--traces", str(traces), "--claims", str(claims),
                         "--mode", "labeled", "--out", str(out),
                         "--cache-dir", str(tmp_path / "c")]) == 0
        with open(out) as fh:
            rows = [json.loads(line) for line in fh]
        assert len(rows) == 3
        for row in rows:
            assert row["ver"] == 1.0  # traces echo the gold verdict
            parts = (row["fmt"] + row["ver"] + row["qc"] + row["div"]
                     + row["cov"] + row["nec"] + row["joint"])
            assert row["total"] == parts

    def test_score_group_advantages(self, tmp_path, corpus_files):
        claims, traces = self._write_score_inputs(tmp_path, corpus_files, group=True)
        out = tmp_path / "group.jsonl"
        assert dispatch(["score-group", "--traces", str(traces), "--claims", str(claims),
                         "--out", str(out), "--cache-dir", str(tmp_path / "c")]) == 0
        with open(out) as fh:
            rows = [json.loads(line) for line in fh]
        assert len(rows) == 12
        by_id = {}
        for row in rows:
            by_id.setdefault(row["id"], []).append(row)
        for group in by_id.values():
            assert len(group) == 4
            assert abs(sum(r["advantage"] for r in group)) < 1e-9
            assert all("pseudo_label" in r for r in group)  # 3-1 majority

    def test_score_group_single_flight(self, tmp_path, corpus_files, judge_server):
        # Rollouts of one claim share questions, so many requests repeat a prompt.
        claims, traces = self._write_score_inputs(tmp_path, corpus_files, group=True)
        outs = []
        for judge in ("mock", judge_server.url):
            outs.append(tmp_path / f"group-{len(outs)}.jsonl")
            assert dispatch(["score-group", "--traces", str(traces), "--claims", str(claims),
                             "--out", str(outs[-1]), "--judge", judge, "--workers", "2",
                             "--cache-dir", str(tmp_path / "c")]) == 0
        prompts = judge_server.prompts
        assert prompts and len(prompts) == len(set(prompts))
        # the server replies as the mock judge does, so the concurrent HTTP
        # fetch must score exactly as the in-memory one
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_score_judge_failure_is_one_backend_error(self, tmp_path, corpus_files,
                                                       judge_server, capsys):
        claims, traces = self._write_score_inputs(tmp_path, corpus_files)
        judge_server.respond = lambda prompt: ((404, "") if "Verdict Criteria" in prompt
                                               else (200, "<answer>1</answer>"))
        out = tmp_path / "rewards.jsonl"
        assert dispatch(["score", "--traces", str(traces), "--claims", str(claims),
                         "--out", str(out), "--judge", judge_server.url,
                         "--cache-dir", str(tmp_path / "c")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: backend:")
        assert not out.exists()

    def test_non_string_judge_reply_is_one_backend_error_every_run(self, tmp_path, corpus_files,
                                                                    judge_server, capsys):
        claims, traces = self._write_score_inputs(tmp_path, corpus_files)
        judge_server.respond = lambda prompt: (200, 5)  # {"text": 5}
        cache = tmp_path / "c"
        for _ in range(2):  # nothing bad is cached, so a rerun asks again and fails the same
            asked = len(judge_server.prompts)
            assert dispatch(["score", "--traces", str(traces), "--claims", str(claims),
                             "--out", str(tmp_path / "rewards.jsonl"),
                             "--judge", judge_server.url, "--cache-dir", str(cache)]) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: backend:")
            assert "not a string" in err[0]
            assert len(judge_server.prompts) > asked
        with closing(sqlite3.connect(cache / DiskCache.FILE_NAME)) as db:
            blobs = [json.loads(blob) for (blob,) in db.execute("SELECT blob FROM responses")]
        assert not any("response" in record for record in blobs)
        assert not (tmp_path / "rewards.jsonl").exists()

    def test_warm_fetches_compute_no_prompt_digest(self, tmp_path, corpus_files, monkeypatch):
        # A cache hit is found by its cache key alone: no reply is looked up
        # by a digest of its prompt.
        claims, traces = self._write_score_inputs(tmp_path, corpus_files, group=True)
        argv = ["score-group", "--traces", str(traces), "--claims", str(claims),
                "--cache-dir", str(tmp_path / "c"), "--out"]
        records = ingest_claims(claims)
        silver_cache = MemoryCache()
        assert dispatch(argv + [str(tmp_path / "cold.jsonl")]) == 0
        cold = silver_stage(records, HashJudgeBackend(), silver_cache, DecodingParams())

        digested = []
        for name, module in list(sys.modules.items()):
            if name.startswith("claimkit") and getattr(module, "prompt_digest",
                                                       None) is prompt_digest:
                monkeypatch.setattr(module, "prompt_digest",
                                    lambda text: digested.append(text) or prompt_digest(text))
        assert dispatch(argv + [str(tmp_path / "warm.jsonl")]) == 0
        warm = silver_stage(records, HashJudgeBackend(), silver_cache, DecodingParams())
        assert digested == []
        assert warm == cold
        assert (tmp_path / "cold.jsonl").read_bytes() == (tmp_path / "warm.jsonl").read_bytes()

    def test_score_rerun_replaces_truncated_cache_files(self, tmp_path, corpus_files):
        claims, traces = self._write_score_inputs(tmp_path, corpus_files)
        cache = tmp_path / "c"
        argv = ["score", "--traces", str(traces), "--claims", str(claims),
                "--cache-dir", str(cache), "--out"]
        assert dispatch(argv + [str(tmp_path / "first.jsonl")]) == 0
        with closing(sqlite3.connect(cache / DiskCache.FILE_NAME)) as db, db:
            rows = db.execute("SELECT key, blob FROM responses ORDER BY key").fetchall()
            cut = [json.loads(blob) for _, blob in rows[::2]]
            assert any("response" in r for r in cut) and any("vector_f64" in r for r in cut)
            db.executemany("UPDATE responses SET blob = ? WHERE key = ?",
                           [(blob[:20], key) for key, blob in rows[::2]])
        assert dispatch(argv + [str(tmp_path / "second.jsonl")]) == 0
        assert (tmp_path / "first.jsonl").read_bytes() == (tmp_path / "second.jsonl").read_bytes()
        with closing(sqlite3.connect(cache / DiskCache.FILE_NAME)) as db:
            assert db.execute("SELECT key, blob FROM responses ORDER BY key").fetchall() == rows

    @pytest.mark.parametrize("kind, field, value", [
        ("judge", "response", 5),
        ("judge", "response", ["a list"]),
        ("embedding", "vector_f64", "AAAAAAAAAAAAAAAA"),  # 12 bytes: no whole float64s
        ("embedding", "vector_f64", ""),
        ("embedding", "vector_f64", "not base64"),
        ("embedding", "vector_f64", 5),
    ])
    def test_cached_record_of_the_wrong_shape_is_one_error_line(self, tmp_path, corpus_files,
                                                                capsys, kind, field, value):
        claims, traces = self._write_score_inputs(tmp_path, corpus_files)
        cache = tmp_path / "c"
        argv = ["score", "--traces", str(traces), "--claims", str(claims),
                "--cache-dir", str(cache), "--out", str(tmp_path / "out.jsonl")]
        assert dispatch(argv) == 0
        with closing(sqlite3.connect(cache / DiskCache.FILE_NAME)) as db, db:
            key, record = next((key, json.loads(blob)) for key, blob in
                               db.execute("SELECT key, blob FROM responses ORDER BY key")
                               if field in json.loads(blob))
            db.execute("UPDATE responses SET blob = ? WHERE key = ?",
                       (json.dumps({**record, field: value}), key))
        capsys.readouterr()
        for _ in range(2):  # every run, until the cache directory is deleted
            assert dispatch(argv) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith(f"error: cache: a stored {kind} record")
            assert err[0].endswith("delete the cache directory and run again")

    def test_score_unknown_id_is_usage_error(self, tmp_path, corpus_files):
        claims, traces = self._write_score_inputs(tmp_path, corpus_files)
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps({"id": "ghost", "trace": "x"}) + "\n")
        assert dispatch(["score", "--traces", str(bad), "--claims", str(claims),
                         "--out", str(tmp_path / "o.jsonl")]) == 2


class TestPlannedScoring:
    """`score` and `score-group` plan a whole file, fetch it in one dispatch
    and score every rollout from the fetched data. Each output row must read
    as `total_reward` of its rollout alone, and the cache must hold what
    scoring the rollouts one at a time stores."""

    GROUPS, GROUP_SIZE = 12, 5

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        rng = np.random.default_rng(23)
        records = [ClaimRecord(id=f"c{i:02d}", claim=f"Alice moved to Paris in {1900 + i}.",
                               evidence=[f"Alice moved to Paris in {1900 + i}.", "She stayed."],
                               source="plan", label=(Label.SUPPORTED, Label.REFUTED)[i % 2],
                               silver_question_count=1 + i % 3)
                   for i in range(self.GROUPS)]
        # the last rollout of each group asks one question that no other asks
        rows = [{"id": r.id, "trace": _random_trace(rng) if k else (
                    f"<think>t</think><question>Is {r.id} alone?</question>"
                    "<answer>Yes.</answer><verification>Supported</verification>")}
                for r in records for k in range(self.GROUP_SIZE, -1, -1)]
        tmp = tmp_path_factory.mktemp("planned")
        write_claims(records, tmp / "claims.jsonl")
        _write_lines(tmp / "traces.jsonl", [json.dumps(row) for row in rows])
        return tmp, {r.id: r for r in records}, rows

    @staticmethod
    def _argv(command, mode, tmp, out, cache):
        return [command, "--traces", str(tmp / "traces.jsonl"), "--claims",
                str(tmp / "claims.jsonl"), "--mode", mode, "--out", str(out),
                "--cache-dir", str(cache)]

    @staticmethod
    def _expected(command, mode, records, rows, judge_cls):
        """Output lines of scoring each rollout alone with `total_reward`, and
        the cache records that the serial reference, which shares no planning
        code with it, stores for the rollouts."""
        stored = {}

        def alone(record, trace, rollout_mode):
            bk = RewardBackends(judge_cls(), HashEmbeddingBackend(), MemoryCache())
            ref_bk = RewardBackends(judge_cls(), HashEmbeddingBackend(), MemoryCache())
            _ref_total_reward(record, trace, rollout_mode, ref_bk)
            stored.update(ref_bk.cache._store)
            return total_reward(record, trace, rollout_mode, bk).to_json_obj(record.id)

        if command == "score":
            objs = [alone(records[row["id"]], row["trace"],
                          Labeled(records[row["id"]].label) if mode == "labeled"
                          else Unlabeled(None)) for row in rows]
        else:
            objs = []
            for cid in sorted({row["id"] for row in rows}):
                traces = [row["trace"] for row in rows if row["id"] == cid]
                label_hat = pseudo_label([parse_trace(t).verdict for t in traces])
                group_mode = (Labeled(records[cid].label) if mode == "labeled"
                              else Unlabeled(label_hat))
                group = [alone(records[cid], t, group_mode) for t in traces]
                for k, (obj, adv) in enumerate(zip(group, group_advantages(
                        [obj["total"] for obj in group]))):
                    obj.update(rollout=k, advantage=adv)
                    if label_hat is not None:
                        obj["pseudo_label"] = label_hat.value
                objs += group
        return [json.dumps(obj, ensure_ascii=False) for obj in objs], stored

    @pytest.mark.parametrize("judge_cls", [HashJudgeBackend, GarblingJudge])
    @pytest.mark.parametrize("command", ["score", "score-group"])
    @pytest.mark.parametrize("mode", ["labeled", "unlabeled"])
    def test_rows_and_cache_match_rollouts_scored_alone(self, inputs, tmp_path, monkeypatch,
                                                        command, mode, judge_cls):
        tmp, records, rows = inputs
        monkeypatch.setattr(cli, "build_judge_backend", lambda spec: judge_cls())
        out, cache = tmp_path / "out.jsonl", tmp_path / "cache"
        assert dispatch(self._argv(command, mode, tmp, out, cache)) == 0
        lines, stored = self._expected(command, mode, records, rows, judge_cls)
        assert out.read_text(encoding="utf-8").splitlines() == lines
        with closing(sqlite3.connect(cache / DiskCache.FILE_NAME)) as db:
            written = {key: json.loads(blob)
                       for key, blob in db.execute("SELECT key, blob FROM responses")}
        assert written == stored

    def test_inputs_reach_every_mode_and_a_lone_question(self, inputs):
        # the differential test above covers all five supervision modes,
        # single-question rollouts, and unparseable judge replies
        _, records, rows = inputs
        reports = {cid: [parse_trace(r["trace"]) for r in rows if r["id"] == cid]
                   for cid in records}
        assert {len(report.questions) for group in reports.values() for report in group} \
            >= {0, 1, 2}
        asked = [report.questions for group in reports.values() for report in group]
        assert {q for qs in asked if len(qs) == 1 for q in qs} - {
            q for qs in asked if len(qs) > 1 for q in qs}
        assert {records[cid].label for cid in records} == set(Label)
        assert {pseudo_label([r.verdict for r in group]) for group in reports.values()} \
            == {Label.SUPPORTED, Label.REFUTED, None}
        garbled = [f for line in self._expected("score", "labeled", records, rows,
                                                GarblingJudge)[0]
                   for f in json.loads(line)["flags"] if f.endswith("judge-parse-error")]
        assert garbled

    def test_one_embed_dispatch_and_one_parse_per_rollout(self, inputs, tmp_path, monkeypatch):
        tmp, _, rows = inputs
        calls = {"embed": 0, "embed_texts": 0, "parse_trace": 0}

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(rewards, "embed", counting("embed", rewards.embed))
        monkeypatch.setattr(HashEmbeddingBackend, "embed_texts",
                            counting("embed_texts", HashEmbeddingBackend.embed_texts))
        monkeypatch.setattr(cli, "parse_trace", counting("parse_trace", parse_trace))
        monkeypatch.setattr(rewards, "parse_trace", counting("parse_trace", parse_trace))
        reports = [parse_trace(row["trace"]) for row in rows]
        multi = {q for report in reports if len(report.questions) > 1 for q in report.questions}
        want_cold = math.ceil(len(multi) / EMBED_CHUNK)
        assert want_cold > 1
        for command, cache, want_embeds in (("score-group", "c1", want_cold),
                                            ("score-group", "c1", 0),
                                            ("score", "c2", want_cold)):
            calls.update(embed=0, embed_texts=0, parse_trace=0)
            assert dispatch(self._argv(command, "unlabeled", tmp, tmp_path / "out.jsonl",
                                       tmp_path / cache)) == 0
            assert calls == {"embed": 1, "embed_texts": want_embeds, "parse_trace": len(rows)}


class TestFunnelHttpBackends:
    """`funnel run` with its judge, embedder and verifier on a loopback server
    that relays the mock backends."""

    def _run(self, tmp_path, corpus_files, backends, cache, tag):
        claims, hold = corpus_files
        cfg = tmp_path / f"cfg-{tag}.json"
        cfg.write_text(json.dumps({"inputs": [str(claims)], "holdouts": [str(hold)],
                                   "budget": 10, "seed": 3, "backends": backends}))
        out, report = tmp_path / f"out-{tag}.jsonl", tmp_path / f"report-{tag}.json"
        code = dispatch(["funnel", "run", "--config", str(cfg), "--out", str(out),
                         "--report", str(report), "--cache-dir", str(tmp_path / cache)])
        return code, (out.read_bytes(), report.read_bytes()) if code == 0 else None

    @staticmethod
    def _http(server):
        return {"judge": server.url + "judge", "embedding": server.url + "embed",
                "verifier": server.url + "verify"}

    def test_same_bytes_as_mock_and_each_item_fetched_once(self, tmp_path, corpus_files,
                                                           relay_server):
        _, mock_bytes = self._run(tmp_path, corpus_files, {}, "mock-cache", "mock")
        code, http_bytes = self._run(tmp_path, corpus_files, self._http(relay_server),
                                     "http-cache", "cold")
        assert code == 0 and http_bytes == mock_bytes
        seen = relay_server.seen

        kept, _ = rule_filter(ingest_claims(corpus_files[0]), RuleThresholds())
        assert sorted(seen["verify"]) == sorted({(r.claim, tuple(r.evidence)) for r in kept})
        stages = json.loads((tmp_path / "report-cold.json").read_text())["stages"]
        silver_in = next(s["input_count"] for s in stages if s["name"] == "silver_decompose")
        assert len(seen["judge"]) == len(set(seen["judge"])) == silver_in
        texts = [text for batch in seen["embed"] for text in batch]
        assert len(texts) == len(set(texts))
        assert max(map(len, seen["embed"])) == EMBED_CHUNK  # chunked, never larger

        for requests in seen.values():
            requests.clear()
        code, warm_bytes = self._run(tmp_path, corpus_files, self._http(relay_server),
                                     "http-cache", "warm")
        assert code == 0 and warm_bytes == mock_bytes
        assert seen == {"judge": [], "embed": [], "verify": []}

    def test_verifier_fault_is_one_stage_error(self, tmp_path, corpus_files, relay_server,
                                               capsys):
        relay_server.status["verify"] = 404
        code, _ = self._run(tmp_path, corpus_files, self._http(relay_server), "c", "fault")
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: stage difficulty_filter:")
        assert not (tmp_path / "out-fault.jsonl").exists()


class TestEval:
    def test_perfect_predictions(self, tmp_path, corpus_files, capsys):
        claims, _ = corpus_files
        records = ingest_claims(claims)[:10]
        preds = tmp_path / "preds.jsonl"
        with open(preds, "w") as fh:
            for r in records:
                fh.write(json.dumps({"id": r.id, "pred": r.label.value}) + "\n")
        assert dispatch(["eval", "--preds", str(preds), "--gold", str(claims)]) == 0
        assert capsys.readouterr().out.strip() == "1.0000"

    def test_missing_pred_file(self, tmp_path, corpus_files):
        claims, _ = corpus_files
        assert dispatch(["eval", "--preds", str(tmp_path / "nope.jsonl"),
                         "--gold", str(claims)]) == 1


def test_cli_import_leaves_http_client_and_sqlite3_unloaded():
    # The HTTP client is imported on the first HTTP call and `sqlite3` when a
    # cache is opened; loading either with the CLI would add its import time
    # to every command. Embedding rows are packed with `binascii`, which is
    # loaded anyway, not with `base64`, which would add its own.
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys, claimkit.cli; sys.exit(sorted({'urllib.request', 'http.client', "
            "'sqlite3', 'base64'} & sys.modules.keys()) or None)")
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0


def _write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines))
    return str(path)


NOT_UTF8 = "'utf-8' codec can't decode byte 0xe9 in position"


def _write_latin1(path, lines):
    """`_write_lines`, but with each 'é' written as the Latin-1 byte 0xe9,
    which is not UTF-8."""
    path.write_bytes("".join(line + "\n" for line in lines).encode("utf-8")
                     .replace("é".encode("utf-8"), b"\xe9"))
    return str(path)


def _malformed_argv(case, tmp_path, claims):
    """argv for one command run on one malformed outside input."""
    rows = [json.loads(line) for line in claims.read_text().splitlines()[:20]]
    first = rows[0]["id"]

    def bad_claims(**fields):
        rows[3].update(fields)
        return _write_latin1(tmp_path / "bad-claims.jsonl",
                             [json.dumps(row, ensure_ascii=False) for row in rows])

    def funnel(config):
        """`funnel run` on a config object, or on a str holding the config file's text."""
        text = config if isinstance(config, str) else json.dumps(config)
        return ["funnel", "run", "--config", _write_latin1(tmp_path / "cfg.json", [text]),
                "--out", str(tmp_path / "out.jsonl"), "--report", str(tmp_path / "r.json")]

    def score(*trace_rows):
        return ["score", "--claims", str(claims), "--out", str(tmp_path / "out.jsonl"),
                "--traces", _write_latin1(tmp_path / "traces.jsonl", trace_rows)]

    def preds(*pred_rows):
        return ["eval", "--gold", str(claims),
                "--preds", _write_latin1(tmp_path / "p.jsonl", pred_rows)]

    def report(text):
        return ["funnel", "report", "--report", _write_latin1(tmp_path / "r.json", [text])]

    trace_row = json.dumps({"id": first, "trace": VALID_TRACE.format(verdict="Supported")})

    def select(**fields):
        return ["select", "--claims", bad_claims(**fields), "--budget", "4",
                "--out", str(tmp_path / "out.jsonl"), "--cache-dir", str(tmp_path / "c")]

    config = {"inputs": [str(claims)], "budget": 10}
    return {
        "trace row not an object": lambda: score("5"),
        "trace not a string": lambda: score(json.dumps({"id": first, "trace": 5})),
        "trace id not a string": lambda: score(json.dumps({"id": [first], "trace": "x"})),
        "pred not a string": lambda: preds(json.dumps({"id": first, "pred": 1})),
        "pred not a verdict label": lambda: preds(
            json.dumps({"id": first, "pred": "Supported"}), "",
            json.dumps({"id": first, "pred": "maybe"})),
        "unknown threshold": lambda: funnel(dict(config, thresholds={"min_passage": 3})),
        "thresholds not an object": lambda: funnel(dict(config, thresholds=[3])),
        "config not an object": lambda: funnel([config]),
        "config without budget": lambda: funnel({"inputs": [str(claims)]}),
        "inputs not an array": lambda: funnel(dict(config, inputs=5)),
        "backend spec not a string": lambda: funnel(dict(config, backends={"judge": 5})),
        "claim not a string (select)": lambda: select(claim=5),
        "claim not a string (dedup)": lambda: [
            "dedup", "--claims", bad_claims(claim=5), "--out", str(tmp_path / "out.jsonl"),
            "--cache-dir", str(tmp_path / "c")],
        "source not a string": lambda: select(source=5),
        "meta not an object": lambda: select(meta=[1, 2]),
        "threshold not a number": lambda: funnel(dict(config, thresholds={"min_passages": "3"})),
        "threshold a bool": lambda: funnel(dict(config, thresholds={"min_entities": True})),
        "budget not integral": lambda: funnel(dict(config, budget=2.7)),
        "seed a string": lambda: funnel(dict(config, seed="3")),
        "holdout claim not a string": lambda: [
            "decontaminate", "--claims", str(claims), "--holdout", bad_claims(claim=5),
            "--out", str(tmp_path / "out.jsonl"), "--cache-dir", str(tmp_path / "c")],
        "gold claim not a string": lambda: [
            "eval", "--preds", _write_lines(tmp_path / "p.jsonl", [json.dumps(
                {"id": first, "pred": "Supported"})]), "--gold", bad_claims(claim=5)],
        "funnel holdout claim not a string": lambda: funnel(dict(
            config, holdouts=[bad_claims(claim=5)], cache_dir=str(tmp_path / "c"))),
        "unknown config key": lambda: funnel(dict(
            config, holdout=[str(claims)], cache_dir=str(tmp_path / "c"))),
        "unknown backend": lambda: funnel(dict(
            config, backends={"embeding": "http://127.0.0.1:9/never"},
            cache_dir=str(tmp_path / "c"))),
        "ner spec not the built-in counter": lambda: funnel(dict(
            config, backends={"ner": "http://127.0.0.1:9/never"}, cache_dir=str(tmp_path / "c"))),
        "claims not UTF-8": lambda: select(id="Café"),
        "traces not UTF-8": lambda: score(trace_row, '{"id": "Café", "trace": "x"}'),
        "predictions not UTF-8": lambda: preds(
            json.dumps({"id": first, "pred": "Supported"}), '{"id": "Café", "pred": "x"}'),
        "fixture not UTF-8": lambda: score(trace_row) + [
            "--judge", "fixture:" + _write_latin1(tmp_path / "fx.jsonl",
                                                  ['{"digest": "Café", "response": "x"}'])],
        "funnel input not UTF-8": lambda: funnel(dict(config, inputs=[bad_claims(id="Café")])),
        "unknown trace id": lambda: score(trace_row, json.dumps({"id": "ghost", "trace": "x"})),
        "unknown prediction id": lambda: preds(
            json.dumps({"id": first, "pred": "Supported"}), "",
            json.dumps({"id": "ghost", "pred": "Refuted"})),
        "config not JSON": lambda: funnel('{"budget": 10, "inputs": }'),
        "config not UTF-8": lambda: funnel('{"budget": 10, "inputs": ["Café.jsonl"]}'),
        "report not JSON": lambda: report('{"stages": }'),
        "report not UTF-8": lambda: report('{"stages": [{"name": "Café"}]}'),
    }[case]()


class TestMalformedInput:
    """Malformed outside input ends in one error line and a defined exit code:
    2 for claims, trace, prediction and fixture files, 1 for a funnel config
    or report. A malformed JSONL row names its file and line."""

    @pytest.mark.parametrize("case, code", [
        ("trace row not an object", 2),
        ("trace not a string", 2),
        ("trace id not a string", 2),
        ("pred not a string", 2),
        ("unknown threshold", 1),
        ("thresholds not an object", 1),
        ("config not an object", 1),
        ("config without budget", 1),
        ("inputs not an array", 1),
        ("backend spec not a string", 1),
        ("claim not a string (select)", 2),
        ("claim not a string (dedup)", 2),
        ("source not a string", 2),
        ("meta not an object", 2),
    ])
    def test_one_error_line(self, tmp_path, corpus_files, capsys, case, code):
        assert dispatch(_malformed_argv(case, tmp_path, corpus_files[0])) == code
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize("case, code, line", [
        ("threshold not a number", 1, "error: config threshold 'min_passages' must be a number"),
        ("threshold a bool", 1, "error: config threshold 'min_entities' must be a number"),
        ("budget not integral", 1, "error: config budget, seed and max_tokens must be integers"),
        ("seed a string", 1, "error: config budget, seed and max_tokens must be integers"),
        ("holdout claim not a string", 2,
         "error: {tmp}/bad-claims.jsonl line 4: claim must be a non-empty string"),
        ("gold claim not a string", 2,
         "error: {tmp}/bad-claims.jsonl line 4: claim must be a non-empty string"),
        ("funnel holdout claim not a string", 2,
         "error: {tmp}/bad-claims.jsonl line 4: claim must be a non-empty string"),
        # a misspelt key would otherwise skip decontamination or the HTTP embedder
        ("unknown config key", 1, "error: unknown config key 'holdout'"),
        ("unknown backend", 1, "error: unknown backend 'embeding'"),
        ("ner spec not the built-in counter", 1,
         "error: unsupported entity-counter spec 'http://127.0.0.1:9/never'"),
        ("pred not a verdict label", 2,
         "error: {tmp}/p.jsonl line 3: not a 2-way verdict label: 'maybe'"),
        # A bad byte is charged to its own line, not to the line being read
        # when the decoder met it.
        ("claims not UTF-8", 2, "error: {tmp}/bad-claims.jsonl line 4: not UTF-8: "
         f"{NOT_UTF8} 11: invalid continuation byte"),
        ("traces not UTF-8", 2, "error: {tmp}/traces.jsonl line 2: not UTF-8: "
         f"{NOT_UTF8} 11: invalid continuation byte"),
        ("predictions not UTF-8", 2, "error: {tmp}/p.jsonl line 2: not UTF-8: "
         f"{NOT_UTF8} 11: invalid continuation byte"),
        ("fixture not UTF-8", 2, "error: {tmp}/fx.jsonl line 1: not UTF-8: "
         f"{NOT_UTF8} 15: invalid continuation byte"),
        ("funnel input not UTF-8", 2, "error: {tmp}/bad-claims.jsonl line 4: not UTF-8: "
         f"{NOT_UTF8} 11: invalid continuation byte"),
        ("unknown trace id", 2,
         "error: {tmp}/traces.jsonl line 2: id 'ghost' is not in {claims}"),
        ("unknown prediction id", 2,
         "error: {tmp}/p.jsonl line 3: id 'ghost' is not in {claims}"),
        ("config not JSON", 1,
         "error: {tmp}/cfg.json: Expecting value: line 1 column 26 (char 25)"),
        ("config not UTF-8", 1,
         f"error: {{tmp}}/cfg.json: {NOT_UTF8} 30: invalid continuation byte"),
        ("report not JSON", 1, "error: {tmp}/r.json: Expecting value: line 1 column 12 (char 11)"),
        ("report not UTF-8", 1,
         f"error: {{tmp}}/r.json: {NOT_UTF8} 25: invalid continuation byte"),
    ])
    def test_error_line_names_the_fault(self, tmp_path, corpus_files, capsys, case, code, line):
        # Config values are checked before any stage runs, and an input
        # error names the file, which matters for commands that read two.
        claims = corpus_files[0]
        assert dispatch(_malformed_argv(case, tmp_path, claims)) == code
        assert capsys.readouterr().err.splitlines() == [line.format(tmp=tmp_path, claims=claims)]

    def test_integral_float_config_counts_accepted(self, tmp_path, corpus_files):
        cfg = _write_lines(tmp_path / "cfg.json", [json.dumps(
            {"inputs": [str(corpus_files[0])], "budget": 10.0, "max_tokens": 512.0})])
        config = FunnelConfig.from_json_file(cfg)
        assert (config.budget, config.max_tokens) == (10, 512)
        assert isinstance(config.budget, int) and isinstance(config.max_tokens, int)


CACHE_COMMANDS = ("dedup", "decontaminate", "select", "score", "score-group", "funnel run")


def _cache_command_argv(command, tmp_path, corpus_files, funnel_config):
    """argv, less --out and --cache-dir, for a command that opens a cache."""
    claims, hold = corpus_files
    scored = [rec.with_silver_count(2) for rec in ingest_claims(claims)[:4]]
    write_claims(scored, tmp_path / "scored.jsonl")
    traces = _write_lines(tmp_path / "traces.jsonl", [json.dumps(
        {"id": rec.id, "trace": VALID_TRACE.format(verdict="Supported")})
        for rec in scored for _ in range(2)])
    return {
        "dedup": ["dedup", "--claims", str(claims)],
        "decontaminate": ["decontaminate", "--claims", str(claims), "--holdout", str(hold)],
        "select": ["select", "--claims", str(claims), "--budget", "4"],
        "score": ["score", "--claims", str(tmp_path / "scored.jsonl"), "--traces", traces],
        "score-group": ["score-group", "--claims", str(tmp_path / "scored.jsonl"),
                        "--traces", traces],
        "funnel run": ["funnel", "run", "--config", str(funnel_config),
                       "--report", str(tmp_path / "r.json")],
    }[command]


class TestCacheLifetime:
    @pytest.mark.parametrize("command", CACHE_COMMANDS)
    def test_command_closes_the_cache(self, tmp_path, corpus_files, funnel_config, command):
        # Closing SQLite's last connection to a WAL database folds the log
        # back into the file and deletes it, so a leftover -wal file means
        # the command left its cache open.
        argv = _cache_command_argv(command, tmp_path, corpus_files, funnel_config)
        cache = tmp_path / "c"
        assert dispatch(argv + ["--out", str(tmp_path / "out.jsonl"),
                                "--cache-dir", str(cache)]) == 0
        assert [path.name for path in cache.iterdir()] == [DiskCache.FILE_NAME]

    @pytest.mark.parametrize("fault", CACHE_FAULTS)
    @pytest.mark.parametrize("command", CACHE_COMMANDS)
    def test_unopenable_cache_is_one_error_line(self, tmp_path, corpus_files, funnel_config,
                                                capsys, fault, command):
        argv = _cache_command_argv(command, tmp_path, corpus_files, funnel_config)
        cache, out = tmp_path / "broken", tmp_path / "out.jsonl"
        break_cache(cache, fault)
        assert dispatch(argv + ["--out", str(out), "--cache-dir", str(cache)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and str(cache) in err[0]
        assert not out.exists()


class TestExitCodes:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            dispatch(["frobnicate"])
        assert err.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            dispatch(["dedup", "--bogus-flag", "x"])
        assert err.value.code == 2

    @pytest.mark.parametrize("command, flag", [
        pytest.param(command, flag, id=f"{command} {flag[0]}") for command, flag in [
            *[(command, ["--seed", "3"]) for command in
              ("funnel report", "dedup", "decontaminate", "score", "score-group", "eval")],
            ("funnel report", ["--cache-dir", "c"]),
            ("eval", ["--cache-dir", "c"]),
            ("funnel report", ["--dry-run"]),
        ]])
    def test_flag_its_command_does_not_read_exits_2(self, command, flag):
        # Each of these flags used to be accepted and then ignored.
        argv = {
            "funnel report": ["funnel", "report", "--report", "r.json"],
            "dedup": ["dedup", "--claims", "c.jsonl", "--out", "o.jsonl"],
            "decontaminate": ["decontaminate", "--claims", "c.jsonl", "--holdout", "h.jsonl",
                              "--out", "o.jsonl"],
            "score": ["score", "--traces", "t.jsonl", "--claims", "c.jsonl", "--out", "o.jsonl"],
            "score-group": ["score-group", "--traces", "t.jsonl", "--claims", "c.jsonl",
                            "--out", "o.jsonl"],
            "eval": ["eval", "--preds", "p.jsonl", "--gold", "g.jsonl"],
        }[command]
        cli.build_parser().parse_args(argv)  # the command line is valid without the flag
        with pytest.raises(SystemExit) as err:
            dispatch(argv + flag)
        assert err.value.code == 2


def _dry_run_case_argv(case, tmp_path, corpus_files, funnel_config, monkeypatch):
    """argv, less --out and --cache-dir, of one command on one input."""
    claims, hold = corpus_files
    records = ingest_claims(claims)[:20]
    write_claims(records, tmp_path / "few.jsonl")
    few = str(tmp_path / "few.jsonl")
    write_claims([rec.with_silver_count(2) for rec in records[:2]] + records[2:4],
                 tmp_path / "scored.jsonl")
    scored = str(tmp_path / "scored.jsonl")

    def traces(*ids):
        return _write_lines(tmp_path / "traces.jsonl", [json.dumps(
            {"id": cid, "trace": VALID_TRACE.format(verdict="Supported")}) for cid in ids])

    def funnel(**fields):
        config = dict(json.loads(funnel_config.read_text()), **fields)
        path = _write_lines(tmp_path / "cfg2.json", [json.dumps(config)])
        return ["funnel", "run", "--config", path, "--report", str(tmp_path / "r.json")]

    def unlabeled():
        write_claims([replace(records[0].with_silver_count(2), label=None)],
                     tmp_path / "unlabeled.jsonl")
        return str(tmp_path / "unlabeled.jsonl")

    def env(name, value, argv):
        monkeypatch.setenv(name, value)
        return argv

    if case == "eval":
        preds = _write_lines(tmp_path / "p.jsonl", [json.dumps(
            {"id": rec.id, "pred": rec.label.value}) for rec in records])
        return ["eval", "--preds", preds, "--gold", few]
    if case in CACHE_COMMANDS:
        return _cache_command_argv(case, tmp_path, corpus_files, funnel_config)
    return {
        "funnel duplicate id across inputs": lambda: funnel(inputs=[str(claims), str(claims)]),
        "funnel budget of 1": lambda: funnel(budget=1),
        "funnel bad embedding spec": lambda: funnel(backends={"embedding": "htp://x"}),
        "funnel missing holdout": lambda: funnel(holdouts=[str(tmp_path / "missing.jsonl")]),
        "funnel empty holdout": lambda: funnel(holdouts=[_write_lines(tmp_path / "h.jsonl", [])]),
        "select bad embedding spec": lambda: [
            "select", "--claims", few, "--budget", "4", "--embedding", "bogus"],
        "select budget over pool": lambda: ["select", "--claims", few, "--budget", "500"],
        "select budget of 1": lambda: ["select", "--claims", few, "--budget", "1"],
        "select bad env override": lambda: env(
            "CLAIMKIT_EMBEDDING_ENDPOINT", "127.0.0.1:9",
            ["select", "--claims", few, "--budget", "4"]),
        "decontaminate empty holdout": lambda: [
            "decontaminate", "--claims", few, "--holdout", _write_lines(tmp_path / "h.jsonl", [])],
        "score labeled without gold": lambda: [
            "score", "--claims", unlabeled(), "--traces", traces(records[0].id)],
        "score without silver count": lambda: [
            "score", "--claims", scored, "--traces", traces(records[0].id, records[2].id)],
        "score-group of one rollout": lambda: [
            "score-group", "--claims", scored,
            "--traces", traces(records[0].id, records[0].id, records[1].id)],
    }[case]()


class TestDryRunParity:
    """A dry run is the real command stopped just before it opens its cache:
    it rejects what the real run rejects, with the same exit code and error
    line, and neither it nor a rejected real run writes a file."""

    @pytest.mark.parametrize("case, code", [
        *[(command, 0) for command in (*CACHE_COMMANDS, "eval")],
        ("funnel duplicate id across inputs", 2),
        ("funnel budget of 1", 1),
        ("funnel bad embedding spec", 1),
        ("funnel missing holdout", 1),
        ("funnel empty holdout", 1),
        ("select bad embedding spec", 1),
        ("select budget over pool", 1),
        ("select budget of 1", 1),
        ("select bad env override", 1),
        ("decontaminate empty holdout", 1),
        ("score labeled without gold", 2),
        ("score without silver count", 1),
        ("score-group of one rollout", 2),
    ])
    def test_dry_run_rejects_what_the_run_rejects(self, tmp_path, corpus_files, funnel_config,
                                                  monkeypatch, capsys, case, code):
        argv = _dry_run_case_argv(case, tmp_path, corpus_files, funnel_config, monkeypatch)
        out, cache = tmp_path / "out.jsonl", tmp_path / "c"
        if argv[0] != "eval":
            argv += ["--out", str(out), "--cache-dir", str(cache)]
        written = [out, cache, tmp_path / "r.json"]
        capsys.readouterr()

        assert dispatch(argv + ["--dry-run"]) == code
        dry = capsys.readouterr()
        assert not any(path.exists() for path in written)
        assert dispatch(argv) == code
        real = capsys.readouterr()
        if code == 0:
            assert dry.out == "dry-run ok: every check passed; nothing written\n"
            assert dry.err == ""
        else:
            assert dry.err == real.err and len(real.err.splitlines()) == 1
            assert real.err.startswith("error: ")
            assert not any(path.exists() for path in written)


def _fault_sides(case, tmp_path, claims, relay_server):
    """{"funnel": argv, "standalone": argv} of `funnel run` and of the
    standalone command meeting one fault. Each side runs in its own
    directory under tmp_path, where this writes the files it reads."""
    rows = [json.loads(line) for line in claims.read_text().splitlines()[:3]]
    lines = [json.dumps(row, ensure_ascii=False) for row in rows]
    scored = {"scored.jsonl": [json.dumps(dict(row, silver_question_count=2)) for row in rows],
              "traces.jsonl": [json.dumps({"id": row["id"], "trace": VALID_TRACE.format(
                  verdict="Supported")}) for row in rows]}
    dedup = ["dedup", "--claims", "claims.jsonl"]
    score = ["score", "--claims", "scored.jsonl", "--traces", "traces.jsonl", "--judge"]
    judge_url = relay_server.url + "judge"
    # (funnel's files, its config fields, standalone's files, its argv)
    funnel_files, fields, standalone_files, argv = {
        "malformed claims row": (
            {"claims.jsonl": lines + [json.dumps({"id": "x", "evidence": [], "source": "s"})]},
            {"inputs": ["claims.jsonl"]}, None, dedup),
        "non-UTF-8 byte": (
            {"claims.jsonl": lines[:2] + [json.dumps(dict(rows[2], id="Café"),
                                                     ensure_ascii=False)]},
            {"inputs": ["claims.jsonl"]}, None, dedup),
        "missing input file": ({}, {"inputs": ["claims.jsonl"]}, None, dedup),
        # the funnel meets the id again in a later file, `dedup` later in its one file
        "duplicate id across input files": (
            {"first.jsonl": lines[:1], "claims.jsonl": [lines[1], lines[0]]},
            {"inputs": ["first.jsonl", "claims.jsonl"]},
            {"claims.jsonl": [lines[0], lines[0]]}, dedup),
        "fixture row without response": (
            {"fx.jsonl": ['{"digest": "x"}'], **scored},
            {"inputs": [str(claims)], "backends": {"judge": "fixture:fx.jsonl"}},
            None, score + ["fixture:fx.jsonl"]),
        "503 from the relay judge": (
            scored, {"inputs": [str(claims)], "backends": {"judge": judge_url}},
            None, score + [judge_url]),
    }[case]
    config = {"holdouts": [], "budget": 10, "cache_dir": "c", **fields}
    sides = {"funnel": (dict(funnel_files, **{"cfg.json": [json.dumps(config)]}),
                        ["funnel", "run", "--config", "cfg.json", "--report", "r.json"]),
             "standalone": (funnel_files if standalone_files is None else standalone_files,
                            argv + ["--cache-dir", "c"])}
    for side, (files, _) in sides.items():
        (tmp_path / side).mkdir()
        for name, file_lines in files.items():
            _write_latin1(tmp_path / side / name, file_lines)
    return {side: argv + ["--out", "out.jsonl"] for side, (_, argv) in sides.items()}


class TestOneFaultOneOutcome:
    """A fault ends `funnel run` and the standalone command that meets it with
    the same exit code and the same error line, but for the `stage <name>: `
    that a funnel stage's failure adds. A dry run of either command that can
    see the fault ends the same way as its real run."""

    @pytest.mark.parametrize("case, code, line, stage", [
        ("malformed claims row", 2, "claims.jsonl line 4: missing field 'claim'", None),
        ("non-UTF-8 byte", 2,
         f"claims.jsonl line 3: not UTF-8: {NOT_UTF8} 11: invalid continuation byte", None),
        ("missing input file", 1, "[Errno 2] No such file or directory: 'claims.jsonl'", None),
        ("duplicate id across input files", 2, "claims.jsonl line 2: duplicate id {id!r}", None),
        ("fixture row without response", 2,
         "fx.jsonl line 1: fixture rows need 'digest' and 'response'", None),
        ("503 from the relay judge", 1,
         "backend: endpoint {url}judge unreachable: server replied 503", "silver_decompose"),
    ])
    def test_same_code_and_line(self, tmp_path, corpus_files, relay_server, monkeypatch, capsys,
                                case, code, line, stage):
        monkeypatch.setattr(transport.time, "sleep", lambda s: None)
        relay_server.status["judge"] = 503
        argvs = _fault_sides(case, tmp_path, corpus_files[0], relay_server)
        outcome = {}
        for side, argv in argvs.items():
            monkeypatch.chdir(tmp_path / side)
            for dry in (True, False):
                code_got = dispatch(argv + ["--dry-run"] * dry)
                outcome[side, dry] = code_got, capsys.readouterr().err
            assert not (tmp_path / side / "out.jsonl").exists()

        first_id = ingest_claims(corpus_files[0])[0].id
        line = "error: " + line.format(id=first_id, url=relay_server.url) + "\n"
        assert outcome["standalone", False] == (code, line)
        funnel_line = line if stage is None else line.replace("error: ", f"error: stage {stage}: ")
        assert outcome["funnel", False] == (code, funnel_line)
        for side in argvs:
            # a backend fault shows only once a backend is called
            dry_outcome = (0, "") if stage else outcome[side, False]
            assert outcome[side, True] == dry_outcome


class TestFaultAndRerun:
    """A run failed at any one backend item, in any of RELAY_FAULTS' ways,
    exits 1 with one backend error line; rerun on the same cache, it ends
    in the clean run's bytes and asks only for what the failed run did not
    get, each item once."""

    def test_score_group_fails_at_each_item_and_resumes(self, tmp_path, corpus_files,
                                                         relay_server, monkeypatch, capsys):
        monkeypatch.setattr(transport.time, "sleep", lambda s: None)
        records = [rec.with_silver_count(2) for rec in ingest_claims(corpus_files[0])[:2]]
        write_claims(records, tmp_path / "claims.jsonl")
        traces = _write_lines(tmp_path / "traces.jsonl", [json.dumps(
            {"id": rec.id, "trace": VALID_TRACE.format(verdict=verdict)})
            for rec in records for verdict in ("Supported", "Refuted")])

        def run(cache, out):
            for requests in (*relay_server.seen.values(), *relay_server.served.values()):
                requests.clear()
            code = dispatch(["score-group", "--claims", str(tmp_path / "claims.jsonl"),
                             "--traces", traces, "--judge", relay_server.url + "judge",
                             "--embedding", relay_server.url + "embed",
                             "--cache-dir", str(tmp_path / cache), "--out", str(tmp_path / out)])
            return code, capsys.readouterr().err.splitlines()

        def items(requests):
            return ([("judge", prompt) for prompt in requests["judge"]]
                    + [("embed", text) for batch in requests["embed"] for text in batch])

        assert run("clean", "clean.jsonl") == (0, [])
        clean = list(dict.fromkeys(items(relay_server.seen)))
        assert len(clean) > 10
        for k, (kind, item) in enumerate(clean):
            relay_server.fault = {item: RELAY_FAULTS[k % len(RELAY_FAULTS)]}
            code, err = run(f"c{k}", f"out{k}.jsonl")
            assert code == 1 and len(err) == 1 and err[0].startswith("error: backend:")
            assert not (tmp_path / f"out{k}.jsonl").exists()
            got = set(items(relay_server.served))

            relay_server.fault = {}
            assert run(f"c{k}", f"out{k}.jsonl") == (0, [])
            assert (tmp_path / f"out{k}.jsonl").read_bytes() == (
                tmp_path / "clean.jsonl").read_bytes()
            asked = items(relay_server.seen)
            assert sorted(asked) == sorted(set(clean) - got)
