"""Command-line verbs, exit codes, and stage-file chaining."""

from __future__ import annotations

import ast
import errno
import importlib
import inspect
import json
import logging
import math
import os
import pkgutil
import shutil
import socket
import subprocess
import sys

import pytest

import terminators
from helpers import (
    FIXTURES,
    GOLDEN,
    HAPPY_RUN_ENTRIES,
    MISMATCH_RUN_ENTRIES,
    RESPONSES,
    SCRIPTS,
    pack_entries,
    pack_lines,
    stdlib_json,
)
from terminators import cli
from terminators.backends import PACK_NAME
from terminators.cli import EXIT_BACKEND, EXIT_OK, EXIT_PIPELINE, main
from terminators.documents import ingest_path
from terminators.pipeline import resume as resume_run

SCENARIO_TXT = FIXTURES / "student_scenario.txt"
SCENARIO_JSON = FIXTURES / "student_scenario.json"


def copy_excerpt(tmp_path):
    target = tmp_path / "OpenAI_ToS.txt"
    target.write_bytes((FIXTURES / "openai_tos_excerpt.txt").read_bytes())
    return target


def copy_raw(tmp_path):
    target = tmp_path / "OpenAI_ToS_Raw.txt"
    target.write_bytes((FIXTURES / "openai_tos_raw.txt").read_bytes())
    return target


def backend_arg(script_name: str) -> str:
    return f"scripted:{SCRIPTS / script_name}"


def extract_args(doc_path, script="paragraph.json", *extra):
    return [
        "extract", str(doc_path),
        "--strategy", "paragraph",
        "--first-line", "106",
        "--backend", backend_arg(script),
        *extra,
    ]


def write_script(path, entries):
    path.write_text(
        json.dumps(
            [
                {"match": match, "response_file": str(RESPONSES / name)}
                for match, name in entries
            ]
        ),
        encoding="utf-8",
    )
    return path


class TestExtract:
    def test_paper_format_matches_golden(self, tmp_path):
        doc = copy_excerpt(tmp_path)
        out = tmp_path / "terms.json"
        code = main(extract_args(doc) + ["--paper-format", "--out", str(out)])
        assert code == EXIT_OK
        assert out.read_bytes() == (GOLDEN / "paper_report.json").read_bytes()

    def test_stage_output_embeds_document(self, tmp_path, capsys):
        doc = copy_excerpt(tmp_path)
        assert main(extract_args(doc)) == EXIT_OK
        stage = json.loads(capsys.readouterr().out)
        assert stage["document"]["source_name"] == "OpenAI_ToS.txt"
        assert len(stage["terms"]) == 4
        assert {c["term_count"] for c in stage["coverage"]} == {0, 4}
        assert all(t["status"] == "extracted" for t in stage["terms"])

    def test_aspect_flag_narrows(self, tmp_path, capsys):
        doc = copy_excerpt(tmp_path)
        code = main(
            extract_args(doc, "aspect.json")
            + ["--aspect", "user obligations"]
        )
        assert code == EXIT_OK
        stage = json.loads(capsys.readouterr().out)
        assert len(stage["terms"]) == 3
        assert all(t["aspect"] == "user obligations" for t in stage["terms"])

    def test_missing_file_is_pipeline_error(self, tmp_path, capsys):
        code = main(extract_args(tmp_path / "absent.txt"))
        assert code == EXIT_PIPELINE
        assert "error" in capsys.readouterr().err


class TestStageChain:
    """extract -> verify -> remediate -> plan, passing files between verbs."""

    def stage(self, tmp_path, name):
        return tmp_path / name

    def run_chain(self, tmp_path):
        doc = copy_excerpt(tmp_path)
        s1, s2, s3, s4 = (
            self.stage(tmp_path, f"stage{i}.json") for i in range(1, 5)
        )
        assert main(extract_args(doc) + ["--out", str(s1)]) == EXIT_OK
        assert main([
            "verify", str(s1), str(doc),
            "--backend", backend_arg("mismatch_run.json"),
            "--out", str(s2),
        ]) == EXIT_OK
        assert main([
            "remediate", str(s2), str(doc),
            "--backend", backend_arg("mismatch_run.json"),
            "--out", str(s3),
        ]) == EXIT_OK
        assert main([
            "plan", str(s3),
            "--scenario-file", str(SCENARIO_TXT),
            "--backend", backend_arg("mismatch_run.json"),
            "--out", str(s4),
        ]) == EXIT_OK
        return doc, s1, s2, s3, s4

    def test_chain_end_to_end(self, tmp_path):
        _, s1, s2, s3, s4 = self.run_chain(tmp_path)

        verified = json.loads(s2.read_text(encoding="utf-8"))
        labels = [v["label"] for v in verified["verifications"]]
        assert labels == ["Supported", "Supported", "Supported", "Unverifiable"]
        statuses = [t["status"] for t in verified["terms"]]
        assert statuses == ["verified_supported"] * 3 + ["unverifiable"]

        remediated = json.loads(s3.read_text(encoding="utf-8"))
        actions = [o["action"] for o in remediated["outcomes"]]
        assert actions == ["kept_supported"] * 3 + ["discarded"]
        assert len(remediated["outcomes"][3]["trail"]) == 1
        assert remediated["outcomes"][3]["trail"][0]["note"] == "no span proposed"
        assert remediated["terms"][3]["status"] == "discarded"

        planned = json.loads(s4.read_text(encoding="utf-8"))
        assert len(planned["plans"]) == 3
        assert planned["plans"][0]["possible_accountability_checks"]
        assert len(planned["notices"]) == 1
        assert "status discarded" in planned["notices"][0]
        assert planned["disclaimer"].startswith("These checks describe")

    def test_doc_mismatch_rejected(self, tmp_path, capsys):
        doc = copy_excerpt(tmp_path)
        other = copy_raw(tmp_path)
        s1 = self.stage(tmp_path, "stage1.json")
        assert main(extract_args(doc) + ["--out", str(s1)]) == EXIT_OK
        code = main([
            "verify", str(s1), str(other),
            "--backend", backend_arg("verify_supported.json"),
        ])
        assert code == EXIT_PIPELINE
        assert "does not match" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, text, doc_format",
        [
            ("tos.txt", "<h1>Terms</h1>\n<p>  Users must be 13 or older.</p>\n",
             "html"),
            ("tos.html", "<script>var terms = 1;</script>\n", "plain"),
        ],
        ids=["html-in-a-txt-file", "plain-in-an-html-file-that-ingests-empty"],
    )
    def test_stage_verbs_accept_either_format(self, tmp_path, name, text,
                                              doc_format):
        """The document file matches when it ingests to the embedded
        document in either format, whatever its extension names, also when
        the extension's format does not ingest it at all."""
        doc = tmp_path / name
        doc.write_text(text, encoding="utf-8")
        script = write_script(tmp_path / "script.json",
                              [("Document name", "empty_terms.json")])
        backend = ["--backend", f"scripted:{script}"]
        s1, s2, s3 = (self.stage(tmp_path, f"stage{i}.json") for i in (1, 2, 3))
        assert main(["extract", str(doc), "--doc-format", doc_format,
                     *backend, "--out", str(s1)]) == EXIT_OK
        assert main(["verify", str(s1), str(doc), *backend,
                     "--out", str(s2)]) == EXIT_OK
        assert main(["remediate", str(s2), str(doc), *backend,
                     "--out", str(s3)]) == EXIT_OK

    def test_doc_mismatch_quotes_the_extension_format(self, tmp_path, capsys):
        """A file that matches in neither format is refused, quoting the
        fingerprint the format its extension names gives."""
        doc = tmp_path / "tos.html"
        doc.write_text("<p>Users must be 13 or older.</p>\n", encoding="utf-8")
        script = write_script(tmp_path / "script.json",
                              [("Document name", "empty_terms.json")])
        backend = ["--backend", f"scripted:{script}"]
        s1 = self.stage(tmp_path, "stage1.json")
        assert main(["extract", str(doc), "--doc-format", "plain", *backend,
                     "--out", str(s1)]) == EXIT_OK
        embedded = json.loads(s1.read_text(encoding="utf-8"))["document"]
        doc.write_text("<p>Users must be 18 or older.</p>\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["verify", str(s1), str(doc), *backend]) == EXIT_PIPELINE
        on_disk = ingest_path(doc)
        assert capsys.readouterr().err == (
            f"terminators: error: {doc} does not match the document the terms "
            f"were extracted from (fingerprint {on_disk.fingerprint[:12]} vs "
            f"{embedded['fingerprint'][:12]})\n")

    def test_remediate_requires_verify_output(self, tmp_path, capsys):
        doc = copy_excerpt(tmp_path)
        s1 = self.stage(tmp_path, "stage1.json")
        assert main(extract_args(doc) + ["--out", str(s1)]) == EXIT_OK
        code = main([
            "remediate", str(s1), str(doc),
            "--backend", backend_arg("mismatch_run.json"),
        ])
        assert code == EXIT_PIPELINE
        assert "no verifications" in capsys.readouterr().err

    def test_stage_file_must_embed_document(self, tmp_path, capsys):
        doc = copy_excerpt(tmp_path)
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"terms": []}', encoding="utf-8")
        code = main([
            "verify", str(bogus), str(doc),
            "--backend", backend_arg("verify_supported.json"),
        ])
        assert code == EXIT_PIPELINE
        assert "not a stage file" in capsys.readouterr().err


class TestStagesMatchRun:
    """Each stage verb runs the same step as `run`, so its output minus the
    embedded document is the matching per-phase file, byte for byte."""

    def test_stage_records_equal_run_directory_files(self, tmp_path, capsys):
        doc = copy_excerpt(tmp_path)
        script = backend_arg("mismatch_run.json")
        scenario = ["--scenario-file", str(SCENARIO_TXT)]
        assert main(extract_args(doc, "mismatch_run.json") + [
            "--out", str(tmp_path / "terms.json"),
        ]) == EXIT_OK
        stages = [
            ("verify", "terms.json", "verifications.json", [str(doc)]),
            ("remediate", "verifications.json", "remediation.json", [str(doc)]),
            ("plan", "remediation.json", "plans.json", scenario),
        ]
        for verb, given, made, extra in stages:
            assert main([
                verb, str(tmp_path / given), *extra,
                "--backend", script, "--out", str(tmp_path / made),
            ]) == EXIT_OK
        assert main([
            "run", str(doc), "--strategy", "paragraph", "--first-line", "106",
            *scenario, "--backend", script, "--out", str(tmp_path / "runs"),
        ]) == EXIT_OK
        capsys.readouterr()
        (run_dir,) = (tmp_path / "runs").iterdir()
        for name in ("terms.json", "verifications.json", "remediation.json",
                     "plans.json"):
            text = (tmp_path / name).read_text(encoding="utf-8")
            stage = json.loads(text)
            assert text == stdlib_json(stage), name
            assert stage.pop("document")["fingerprint"]
            assert stdlib_json(stage) == (run_dir / name).read_text(
                encoding="utf-8"
            ), name

    def test_stage_verbs_log_nothing(self, tmp_path, capsys, caplog):
        """Each stage verb over the excerpt and happy_run.json exits 0
        without a warning or a word on stderr."""
        doc = copy_excerpt(tmp_path)
        script = ["--backend", backend_arg("happy_run.json")]
        verbs = [
            extract_args(doc, "happy_run.json"),
            ["verify", str(tmp_path / "extract.json"), str(doc), *script],
            ["remediate", str(tmp_path / "verify.json"), str(doc), *script],
            ["plan", str(tmp_path / "remediate.json"),
             "--scenario-file", str(SCENARIO_TXT), *script],
        ]
        with caplog.at_level(logging.WARNING):
            for argv in verbs:
                out = tmp_path / f"{argv[0]}.json"
                assert main(argv + ["--out", str(out)]) == EXIT_OK, argv[0]
        assert capsys.readouterr().err == ""
        assert caplog.records == []

    def test_remediate_output_does_not_depend_on_workers(self, tmp_path):
        _, _, s2, _, _ = TestStageChain().run_chain(tmp_path)
        outputs = []
        for workers in ("1", "4"):
            out = tmp_path / f"remediated_{workers}.json"
            assert main([
                "remediate", str(s2), str(tmp_path / "OpenAI_ToS.txt"),
                "--backend", backend_arg("mismatch_run.json"),
                "--workers", workers, "--out", str(out),
            ]) == EXIT_OK
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestScenarioLoading:
    def plan_with(self, tmp_path, scenario_args, capsys):
        doc, s1, s2, s3, _ = TestStageChain().run_chain(tmp_path)
        out = tmp_path / "replan.json"
        code = main([
            "plan", str(s3),
            *scenario_args,
            "--backend", backend_arg("mismatch_run.json"),
            "--out", str(out),
        ])
        assert code == EXIT_OK
        return json.loads(out.read_text(encoding="utf-8"))

    def test_text_and_json_scenarios_share_a_fingerprint(
        self, tmp_path, capsys
    ):
        """The JSON scenario adds a "persona" key, which is not read."""
        from_text = self.plan_with(
            tmp_path, ["--scenario-file", str(SCENARIO_TXT)], capsys
        )
        from_json = self.plan_with(
            tmp_path, ["--scenario-file", str(SCENARIO_JSON)], capsys
        )
        a = from_text["plans"][0]["scenario_fingerprint"]
        b = from_json["plans"][0]["scenario_fingerprint"]
        assert a == b

    def test_jurisdiction_flag_overrides(self, tmp_path, capsys):
        planned = self.plan_with(
            tmp_path,
            ["--scenario-file", str(SCENARIO_TXT), "--jurisdiction", "gdpr"],
            capsys,
        )
        assert all(
            p["jurisdiction_used"] == "gdpr" for p in planned["plans"]
        )

    def test_jurisdiction_none_overrides_the_scenario_file(self, tmp_path,
                                                           capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"description": "A student.",
                                        "jurisdiction": "gdpr"}))
        from_file = self.plan_with(tmp_path, ["--scenario-file", str(scenario)],
                                   capsys)
        assert {p["jurisdiction_used"] for p in from_file["plans"]} == {"gdpr"}
        planned = self.plan_with(
            tmp_path,
            ["--scenario-file", str(scenario), "--jurisdiction", "none"],
            capsys,
        )
        assert {p["jurisdiction_used"] for p in planned["plans"]} == {"none"}

    def test_non_string_description_exits_two(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"description": 5}))
        code = main([
            "run", str(copy_excerpt(tmp_path)),
            "--backend", backend_arg("happy_run.json"),
            "--scenario-file", str(scenario),
            "--out", str(tmp_path / "runs"),
        ])
        assert code == EXIT_PIPELINE
        err = capsys.readouterr().err
        assert "scenario description must be a non-empty string" in err
        assert "Traceback" not in err

    def run_with_scenario(self, tmp_path, text):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(text, encoding="utf-8")
        code = main([
            "run", str(copy_excerpt(tmp_path)),
            "--backend", backend_arg("happy_run.json"),
            "--scenario-file", str(scenario),
            "--out", str(tmp_path / "runs"),
        ])
        return code, scenario

    @pytest.mark.parametrize("value", ["GDPR", ["gdpr"]],
                             ids=["upper-case", "list"])
    def test_unknown_jurisdiction_names_the_file(self, tmp_path, capsys,
                                                 value):
        code, scenario = self.run_with_scenario(
            tmp_path, json.dumps({"description": "A student.",
                                  "jurisdiction": value}))
        assert code == EXIT_PIPELINE
        err = capsys.readouterr().err
        assert err == (f"terminators: error: {scenario}: jurisdiction must be "
                       f"one of none, gdpr, ccpa, not {value!r}\n")

    @pytest.mark.parametrize("text", [
        json.dumps({"description": 5}),
        json.dumps({"jurisdiction": "gdpr"}),
        "   ",
    ], ids=["non-string", "missing", "empty-text"])
    def test_bad_description_names_the_file(self, tmp_path, capsys, text):
        code, scenario = self.run_with_scenario(tmp_path, text)
        assert code == EXIT_PIPELINE
        assert capsys.readouterr().err == (
            f"terminators: error: {scenario}: scenario description must be "
            "a non-empty string\n"
        )

    def test_scenario_json_neither_object_nor_string_exits_two(
        self, tmp_path, capsys
    ):
        code, scenario = self.run_with_scenario(tmp_path, "[1]")
        assert code == EXIT_PIPELINE
        assert capsys.readouterr().err == (
            f"terminators: error: {scenario}: scenario JSON must be an "
            "object or string\n"
        )

    def test_string_json_scenario(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps("I review AI answers for a law firm."))
        planned = self.plan_with(
            tmp_path, ["--scenario-file", str(scenario)], capsys
        )
        assert len(planned["plans"]) == 3


def excerpt_run_argv(tmp_path, script) -> list[str]:
    """run over the excerpt copied into tmp_path, into tmp_path / "runs",
    with the given script and the student scenario."""
    return [
        "run", str(tmp_path / "OpenAI_ToS.txt"),
        "--strategy", "paragraph",
        "--first-line", "106",
        "--backend", f"scripted:{script}",
        "--scenario-file", str(SCENARIO_TXT),
        "--out", str(tmp_path / "runs"),
    ]


class TestRunResumeReport:
    def completed_run(self, tmp_path, capsys):
        doc = copy_excerpt(tmp_path)
        out_root = tmp_path / "runs"
        code = main([
            "run", str(doc),
            "--strategy", "paragraph",
            "--first-line", "106",
            "--backend", backend_arg("happy_run.json"),
            "--scenario-file", str(SCENARIO_TXT),
            "--out", str(out_root),
        ])
        assert code == EXIT_OK
        summary = capsys.readouterr().out
        run_dirs = list(out_root.iterdir())
        assert len(run_dirs) == 1
        return run_dirs[0], summary

    def test_run_summary_and_artifacts(self, tmp_path, capsys):
        run_dir, summary = self.completed_run(tmp_path, capsys)
        assert f"run {run_dir.name} (complete)" in summary
        assert "terms extracted: 4" in summary
        assert "surviving: 4" in summary
        assert "discarded: 0" in summary
        assert "plans: 4" in summary
        for name in ("report.audit.json", "report.paper.json", "report.md"):
            assert (run_dir / name).exists()

    def test_every_candidate_rejected_warns_and_exits_zero(self, tmp_path,
                                                          capsys, caplog):
        """happy_run.json's answers cite OpenAI_ToS.txt: under the fixture's
        own name, every candidate is rejected."""
        argv = excerpt_run_argv(tmp_path, SCRIPTS / "happy_run.json")
        argv[1] = str(FIXTURES / "openai_tos_excerpt.txt")
        with caplog.at_level(logging.WARNING, logger="terminators.parsing"):
            assert main(argv) == EXIT_OK
        assert "terms extracted: 0" in capsys.readouterr().out
        assert [r.getMessage() for r in caplog.records] == [
            "every extracted candidate was rejected (4); first: chunk "
            "908d0600ecb4: rejected candidate 0: source_range: "
            "'OpenAI_ToS.txt:108-109': span names 'OpenAI_ToS.txt' but "
            "document is 'openai_tos_excerpt.txt'"]

    def test_run_summary_names_the_report_files_written(self, tmp_path,
                                                         capsys):
        from terminators.pipeline import _REPORT_FILES

        run_dir, summary = self.completed_run(tmp_path, capsys)
        (line,) = [ln for ln in summary.splitlines() if "reports:" in ln]
        named = line.split("reports: ")[1].split(", ")
        assert named == list(_REPORT_FILES)
        assert sorted(named) == sorted(p.name for p in run_dir.glob("report.*"))

    def test_report_paper_matches_golden(self, tmp_path, capsys):
        run_dir, _ = self.completed_run(tmp_path, capsys)
        out = tmp_path / "paper.json"
        code = main([
            "report", str(run_dir),
            "--report-format", "paper_json",
            "--out", str(out),
        ])
        assert code == EXIT_OK
        assert out.read_bytes() == (GOLDEN / "paper_report.json").read_bytes()

    def test_report_defaults_to_audit(self, tmp_path, capsys):
        run_dir, _ = self.completed_run(tmp_path, capsys)
        assert main(["report", str(run_dir)]) == EXIT_OK
        audit = json.loads(capsys.readouterr().out)
        assert audit["counts"] == {
            "extracted": 4, "surviving": 4, "discarded": 0,
        }

    def test_report_markdown(self, tmp_path, capsys):
        run_dir, _ = self.completed_run(tmp_path, capsys)
        assert main([
            "report", str(run_dir), "--report-format", "markdown",
        ]) == EXIT_OK
        assert capsys.readouterr().out.startswith("# Accountability audit:")

    def test_report_on_missing_run(self, tmp_path, capsys):
        code = main(["report", str(tmp_path / "nowhere")])
        assert code == EXIT_PIPELINE
        assert "no run.json" in capsys.readouterr().err

    def interrupted_run(self, tmp_path, capsys):
        doc = copy_excerpt(tmp_path)
        out_root = tmp_path / "runs"
        partial = write_script(
            tmp_path / "partial.json", HAPPY_RUN_ENTRIES[:3]
        )
        code = main([
            "run", str(doc),
            "--strategy", "paragraph",
            "--first-line", "106",
            "--backend", f"scripted:{partial}",
            "--scenario-file", str(SCENARIO_TXT),
            "--out", str(out_root),
        ])
        assert code == EXIT_BACKEND
        capsys.readouterr()

        run_dirs = list(out_root.iterdir())
        assert len(run_dirs) == 1
        run_dir = run_dirs[0]
        assert not (run_dir / "plans.json").exists()
        return run_dir

    def test_interrupted_run_then_resume(self, tmp_path, capsys):
        run_dir = self.interrupted_run(tmp_path, capsys)
        code = main([
            "resume", str(run_dir),
            "--backend", backend_arg("happy_run.json"),
        ])
        assert code == EXIT_OK
        summary = capsys.readouterr().out
        assert "(complete)" in summary
        assert "plans: 4" in summary
        assert (run_dir / "report.paper.json").read_bytes() == (
            GOLDEN / "paper_report.json"
        ).read_bytes()

    def test_rerun_returns_a_complete_run_and_continues_a_stopped_one(
        self, tmp_path, capsys
    ):
        """A run stopped at verification continues under run to the files
        of a clean run, and a rerun into the complete run's directory
        exits 0 with a strict empty script: it calls no backend."""
        (tmp_path / "clean").mkdir()
        clean_dir, _ = self.completed_run(tmp_path / "clean", capsys)
        copy_excerpt(tmp_path)
        no_verifier = write_script(tmp_path / "no_verifier.json", [
            entry for entry in HAPPY_RUN_ENTRIES
            if entry[0] != "backed by the passage it cites"
        ])
        assert main(excerpt_run_argv(tmp_path, no_verifier)) == EXIT_BACKEND
        assert "terminators: backend error" in capsys.readouterr().err
        (run_dir,) = (tmp_path / "runs").iterdir()
        assert sorted(p.name for p in run_dir.iterdir()) == [
            "document.json", "events.jsonl", "run.json", "terms.json",
        ]
        assert main(excerpt_run_argv(
            tmp_path, SCRIPTS / "happy_run.json")) == EXIT_OK
        summary = capsys.readouterr().out
        assert f"run {run_dir.name} (complete)" in summary
        names = sorted(p.name for p in clean_dir.iterdir())
        assert names == sorted(p.name for p in run_dir.iterdir())
        for name in names:
            if name != "events.jsonl":
                assert (run_dir / name).read_bytes() == (
                    clean_dir / name).read_bytes(), name
        empty = write_script(tmp_path / "empty.json", [])
        assert main(excerpt_run_argv(tmp_path, empty)) == EXIT_OK
        assert capsys.readouterr().out == summary

    def test_rerun_of_a_complete_run_changes_no_file(self, tmp_path, capsys,
                                                      caplog):
        """Two runs of the same inputs into one --out: the second returns
        the complete run, so no file changes, events.jsonl included, and
        neither logs a warning or writes to stderr."""
        copy_excerpt(tmp_path)
        argv = excerpt_run_argv(tmp_path, SCRIPTS / "happy_run.json")
        with caplog.at_level(logging.WARNING):
            assert main(argv) == EXIT_OK
            (run_dir,) = (tmp_path / "runs").iterdir()
            before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
            assert main(argv) == EXIT_OK
        assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before
        assert before["report.paper.json"] == (
            GOLDEN / "paper_report.json").read_bytes()
        assert capsys.readouterr().err == ""
        assert caplog.records == []

    def test_report_before_extraction_exits_two(self, tmp_path, capsys):
        empty = write_script(tmp_path / "empty.json", [])
        code = main([
            "run", str(copy_excerpt(tmp_path)),
            "--backend", f"scripted:{empty}",
            "--out", str(tmp_path / "runs"),
        ])
        assert code == EXIT_BACKEND
        capsys.readouterr()
        (run_dir,) = (tmp_path / "runs").iterdir()
        assert main(["report", str(run_dir)]) == EXIT_PIPELINE
        assert capsys.readouterr().err == (
            "terminators: error: run has no extracted terms to report yet\n"
        )

    def test_resume_workers_flag_sets_the_concurrency(
        self, tmp_path, capsys, monkeypatch
    ):
        run_dir = self.interrupted_run(tmp_path, capsys)
        seen = []

        def spy(run_dir, backend, **kwargs):
            run = resume_run(run_dir, backend, **kwargs)
            seen.append(run.config.workers)
            return run

        monkeypatch.setattr("terminators.cli.resume_run", spy)
        assert main([
            "resume", str(run_dir),
            "--backend", backend_arg("happy_run.json"),
            "--workers", "3",
        ]) == EXIT_OK
        assert seen == [3]
        assert "(complete)" in capsys.readouterr().out


class TestLexicalResourcing:
    """`run --no-llm-resource` over the mismatch fixture: the lexical search
    re-sources the Unverifiable term to lines 111-116, whose verification the
    script answers Supported."""

    ENTRIES = (
        ("Cited source: OpenAI_ToS.txt:111-116", "supported_verification.json"),
        ("Source passage (OpenAI_ToS.txt:111-116)", "plan_disclaimer.json"),
    ) + MISMATCH_RUN_ENTRIES

    @pytest.mark.parametrize("workers", [1, 4])
    def test_run_matches_golden(self, tmp_path, capsys, workers):
        doc = copy_excerpt(tmp_path)
        script = write_script(tmp_path / "script.json", self.ENTRIES)
        assert main([
            "run", str(doc), "--strategy", "paragraph", "--first-line", "106",
            "--backend", f"scripted:{script}",
            "--scenario-file", str(SCENARIO_TXT), "--no-llm-resource",
            "--workers", str(workers), "--out", str(tmp_path / "runs"),
        ]) == EXIT_OK
        capsys.readouterr()
        (run_dir,) = (tmp_path / "runs").iterdir()
        assert (run_dir / "remediation.json").read_bytes() == (
            GOLDEN / "no_llm_resource_remediation.json"
        ).read_bytes()
        # The worker count is not part of the run identity, so every worker
        # count writes the same run directory and audit report.
        golden = GOLDEN / "no_llm_resource_report.audit.json"
        assert run_dir.name == json.loads(golden.read_text("utf-8"))["run_id"]
        assert (run_dir / "report.audit.json").read_bytes() == (
            golden.read_bytes()
        )


class TestMarkdownReport:
    """report.md of the mismatch run: three survivors and one discarded
    term, the same bytes at every worker count."""

    @pytest.mark.parametrize("workers", [1, 4])
    def test_run_matches_golden(self, tmp_path, capsys, workers):
        copy_excerpt(tmp_path)
        argv = excerpt_run_argv(tmp_path, SCRIPTS / "mismatch_run.json")
        assert main(argv + ["--workers", str(workers)]) == EXIT_OK
        capsys.readouterr()
        (run_dir,) = (tmp_path / "runs").iterdir()
        assert (run_dir / "report.md").read_bytes() == (
            GOLDEN / "mismatch_report.md"
        ).read_bytes()


def assert_entries_canonical(cache):
    """The cache is one pack, and each of its lines reads as the stdlib's
    one-line encoder writes the entry."""
    assert [p.name for p in cache.iterdir()] == [PACK_NAME]
    lines = pack_lines(cache)
    assert lines, "cache must be populated"
    for line in lines:
        assert line == json.dumps(json.loads(line), ensure_ascii=False), line
    assert len(pack_entries(cache)) == len(lines), "one line per request"


class TestCache:
    def test_env_cache_replays_without_backend(
        self, tmp_path, capsys, monkeypatch
    ):
        doc = copy_excerpt(tmp_path)
        cache = tmp_path / "cache"
        monkeypatch.setenv("TERMINATORS_CACHE", str(cache))
        assert main(extract_args(doc)) == EXIT_OK
        first = capsys.readouterr().out
        assert_entries_canonical(cache)

        empty = tmp_path / "empty_script.json"
        empty.write_text("[]", encoding="utf-8")
        assert main(extract_args(doc)[:-2] + [
            "--backend", f"scripted:{empty}",
        ]) == EXIT_OK
        assert capsys.readouterr().out == first

    def test_cache_dir_flag_wins_over_env(
        self, tmp_path, capsys, monkeypatch
    ):
        doc = copy_excerpt(tmp_path)
        env_cache = tmp_path / "env_cache"
        flag_cache = tmp_path / "flag_cache"
        monkeypatch.setenv("TERMINATORS_CACHE", str(env_cache))
        assert main(
            extract_args(doc) + ["--cache-dir", str(flag_cache)]
        ) == EXIT_OK
        capsys.readouterr()
        assert_entries_canonical(flag_cache)
        assert not env_cache.exists()

    def cached(self, tmp_path, argv, script):
        """argv with the response cache and the given script file."""
        return argv + ["--backend", f"scripted:{script}",
                       "--cache-dir", str(tmp_path / "cache")]

    def empty_script(self, tmp_path):
        """A strict script with no entries: any request that reaches the
        backend fails."""
        return write_script(tmp_path / "empty_script.json", [])

    @pytest.mark.parametrize("verb", ["verify", "remediate", "plan"])
    def test_stage_verb_replays_without_backend(self, tmp_path, capsys, verb):
        doc, s1, s2, s3, _ = TestStageChain().run_chain(tmp_path)
        argv = {
            "verify": ["verify", str(s1), str(doc)],
            "remediate": ["remediate", str(s2), str(doc)],
            "plan": ["plan", str(s3), "--scenario-file", str(SCENARIO_TXT)],
        }[verb]
        capsys.readouterr()
        assert main(self.cached(
            tmp_path, argv, SCRIPTS / "mismatch_run.json"
        )) == EXIT_OK
        cold = capsys.readouterr().out
        assert_entries_canonical(tmp_path / "cache")
        assert main(self.cached(
            tmp_path, argv, self.empty_script(tmp_path)
        )) == EXIT_OK
        assert capsys.readouterr().out == cold

    def run_argv(self, doc, out_root):
        return [
            "run", str(doc), "--strategy", "paragraph", "--first-line", "106",
            "--scenario-file", str(SCENARIO_TXT), "--out", str(out_root),
        ]

    def assert_same_run_files(self, cold_dir, warm_dir):
        names = sorted(p.name for p in cold_dir.iterdir())
        assert names == sorted(p.name for p in warm_dir.iterdir())
        for name in names:
            if name != "events.jsonl":
                assert (warm_dir / name).read_bytes() == (
                    (cold_dir / name).read_bytes()
                ), f"{name} differs between the cold and the warm run"

    def test_run_replays_without_backend(self, tmp_path, capsys):
        doc = copy_excerpt(tmp_path)
        assert main(self.cached(
            tmp_path, self.run_argv(doc, tmp_path / "cold"),
            SCRIPTS / "mismatch_run.json",
        )) == EXIT_OK
        assert main(self.cached(
            tmp_path, self.run_argv(doc, tmp_path / "warm"),
            self.empty_script(tmp_path),
        )) == EXIT_OK
        capsys.readouterr()
        assert_entries_canonical(tmp_path / "cache")
        (cold_dir,) = (tmp_path / "cold").iterdir()
        (warm_dir,) = (tmp_path / "warm").iterdir()
        self.assert_same_run_files(cold_dir, warm_dir)

    def test_file_as_cache_dir_warns_once_per_kind(self, tmp_path, capsys,
                                                   caplog):
        """A regular file given as --cache-dir: the run exits 0 uncached,
        and each kind of cache warning is logged once, however many
        requests meet it."""
        doc = copy_excerpt(tmp_path)
        cache = tmp_path / "cache-file"
        cache.write_text("a file where the cache directory should be")
        argv = self.run_argv(doc, tmp_path / "runs") + [
            "--backend", backend_arg("happy_run.json"),
            "--cache-dir", str(cache)]
        with caplog.at_level(logging.WARNING):
            assert main(argv) == EXIT_OK
        assert "(complete)" in capsys.readouterr().out
        kinds = [r.getMessage().split(" ")[:3] for r in caplog.records]
        assert sorted(kinds) == [["cache", "write", "failed"],
                                 ["unreadable", "cache", "pack"]], kinds

    def test_resumed_run_replays_without_backend(self, tmp_path, capsys):
        """An interrupted run, resumed with the cache, fills it; resuming a
        copy of the interrupted run with no backend replays the rest."""
        doc = copy_excerpt(tmp_path)
        partial = write_script(tmp_path / "partial.json", HAPPY_RUN_ENTRIES[:3])
        assert main(self.cached(
            tmp_path, self.run_argv(doc, tmp_path / "cold"), partial
        )) == EXIT_BACKEND
        (cold_dir,) = (tmp_path / "cold").iterdir()
        warm_dir = tmp_path / "warm" / cold_dir.name
        shutil.copytree(cold_dir, warm_dir)
        assert main(self.cached(
            tmp_path, ["resume", str(cold_dir)], SCRIPTS / "happy_run.json"
        )) == EXIT_OK
        assert main(self.cached(
            tmp_path, ["resume", str(warm_dir)], self.empty_script(tmp_path)
        )) == EXIT_OK
        assert "(complete)" in capsys.readouterr().out
        self.assert_same_run_files(cold_dir, warm_dir)


class TestExitCodes:
    def test_usage_errors_exit_one(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1
        with pytest.raises(SystemExit) as exc:
            main(["conjure"])
        assert exc.value.code == 1
        with pytest.raises(SystemExit) as exc:
            main(["extract", "x.txt", "--strategy", "bogus"])
        assert exc.value.code == 1
        with pytest.raises(SystemExit) as exc:
            main(["run", "tos.md", "--doc-format", "markdown"])
        assert exc.value.code == 1
        capsys.readouterr()

    @pytest.mark.parametrize("verb", ["run", "verify", "remediate"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "abc"])
    def test_non_finite_threshold_is_a_usage_error(self, verb, value, capsys):
        # NaN would turn the low-overlap flag off (no score is below it),
        # and none of the three is JSON to write into run.json. Text that
        # is no number gets the same message.
        files = {"run": ["tos.txt"], "verify": ["terms.json", "tos.txt"],
                 "remediate": ["verified.json", "tos.txt"]}[verb]
        with pytest.raises(SystemExit) as exc:
            main([verb, *files, f"--threshold={value}"])
        assert exc.value.code == 1
        assert f"--threshold: not a finite number: '{value}'" in (
            capsys.readouterr().err
        )

    def test_finite_threshold_is_recorded(self, tmp_path, capsys):
        code = main([
            "run", str(copy_excerpt(tmp_path)),
            "--strategy", "paragraph", "--first-line", "106",
            "--backend", backend_arg("happy_run.json"),
            "--threshold", "0.5",
            "--out", str(tmp_path / "runs"),
        ])
        assert code == EXIT_OK
        capsys.readouterr()
        (run_dir,) = (tmp_path / "runs").iterdir()
        header = json.loads((run_dir / "run.json").read_text(encoding="utf-8"))
        assert header["config"]["threshold"] == 0.5

    def test_unwritable_out_names_the_file_not_its_temporary_file(
        self, tmp_path, capsys
    ):
        out = tmp_path / "runs"
        out.write_text("a file, not a directory\n", encoding="utf-8")
        code = main([
            "run", str(copy_excerpt(tmp_path)),
            "--strategy", "paragraph", "--first-line", "106",
            "--backend", backend_arg("happy_run.json"),
            "--out", str(out),
        ])
        assert code == EXIT_PIPELINE
        err = capsys.readouterr().err
        assert err.startswith(f"terminators: error: [Errno {errno.ENOTDIR}] "
                              f"{os.strerror(errno.ENOTDIR)}: ")
        assert err.rstrip().endswith("document.json'")
        assert ".tmp" not in err
        assert out.read_text(encoding="utf-8") == "a file, not a directory\n"

    @pytest.mark.parametrize("argv, flag, message", [
        (["run", "tos.txt"], "--workers=0", "must be at least 1, not 0"),
        (["resume", "runs/x"], "--workers=-3", "must be at least 1, not -3"),
        (["extract", "tos.txt"], "--max-chunk-lines=0",
         "must be at least 1, not 0"),
        (["run", "tos.txt"], "--first-line=0", "must be at least 1, not 0"),
        (["run", "tos.txt", "--strategy", "parallel"], "--parallel-fanout=1",
         "must be at least 2, not 1"),
        (["verify", "terms.json", "tos.txt"], "--context-lines=-2",
         "must be at least 0, not -2"),
        (["remediate", "verified.json", "tos.txt"], "--context-lines=two",
         "not an integer: 'two'"),
        (["run", "tos.txt"], "--min-checks=0", "must be at least 1, not 0"),
        (["plan", "verified.json", "tos.txt", "--scenario-file", "s.txt"],
         "--min-checks=-1", "must be at least 1, not -1"),
    ], ids=["workers-zero", "workers-negative", "max-chunk-lines-zero",
            "first-line-zero", "fanout-one", "context-lines-negative",
            "context-lines-not-an-integer", "min-checks-zero",
            "min-checks-negative"])
    def test_out_of_range_integer_flag_is_a_usage_error(
        self, argv, flag, message, capsys
    ):
        # Exit 2 is for pipeline failures; --workers 0, --context-lines -2
        # and --min-checks -1 would otherwise run, the latter two under a
        # run id of their own.
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag])
        assert exc.value.code == 1
        name = flag.split("=")[0]
        assert f"{name}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["report", "runs/x", "--workers", "2"],
        ["report", "runs/x", "--backend", "live"],
        ["resume", "runs/x", "--best-effort"],
        ["resume", "runs/x", "--out", "elsewhere"],
        ["run", "tos.txt", "--max-attempts", "2"],
        ["remediate", "verified.json", "tos.txt", "--max-attempts", "2"],
    ])
    def test_flags_a_verb_ignores_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("verb, key, corrupt, message", [
        ("verify", "terms", lambda r: r.pop("terms"), "no terms"),
        ("verify", "terms", lambda r: r["document"].update(lines=[]),
         "document has no lines"),
        ("remediate", "verifications",
         lambda r: r["verifications"][0].pop("label"), "missing key 'label'"),
        ("remediate", "verifications",
         lambda r: r["verifications"].pop(),
         "'verifications' do not pair with 'terms' at index 3"),
        ("plan", "outcomes",
         lambda r: r["terms"][0].pop("status"), "malformed 'terms' entry"),
        ("verify", "terms", lambda r: r["terms"][0].update(term=5),
         "malformed 'terms' entry: Term.term: expected str"),
        ("verify", "terms",
         lambda r: r["terms"][0].update(applicable_to="User"),
         "malformed 'terms' entry: Term.applicable_to: expected a list"),
        ("verify", "terms", lambda r: r["terms"][0].update(term_id=7),
         "malformed 'terms' entry: Term.term_id: expected str"),
        ("verify", "terms", lambda r: r["terms"][0].update(aspect=["x"]),
         "malformed 'terms' entry: Term.aspect: expected str"),
    ], ids=["no-terms-key", "document-without-lines",
            "verification-without-label",
            "fewer-verifications-than-terms", "term-without-status",
            "statement-not-a-string", "parties-not-a-list",
            "term-id-not-a-string", "aspect-not-a-string"])
    def test_malformed_stage_file_exits_two(
        self, tmp_path, capsys, verb, key, corrupt, message
    ):
        doc, *stages = TestStageChain().run_chain(tmp_path)
        stage = next(
            s for s in stages if key in json.loads(s.read_text(encoding="utf-8"))
        )
        record = json.loads(stage.read_text(encoding="utf-8"))
        corrupt(record)
        stage.write_text(json.dumps(record), encoding="utf-8")
        argv = [verb, str(stage)]
        argv += (["--scenario-file", str(SCENARIO_TXT)] if verb == "plan"
                 else [str(doc)])
        code = main(argv + ["--backend", backend_arg("mismatch_run.json")])
        assert code == EXIT_PIPELINE
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("corrupt, message", [
        (lambda r: r["verifications"].pop(),
         "'verifications' do not pair with 'terms' at index 3"),
        (lambda r: r["terms"][0].update(term=5),
         "malformed 'terms' entry: Term.term: expected str, got 5"),
    ], ids=["pairing", "malformed-entry"])
    def test_stage_file_names_itself_in_restore_errors(
        self, tmp_path, capsys, corrupt, message
    ):
        doc, _, verified, _, _ = TestStageChain().run_chain(tmp_path)
        record = json.loads(verified.read_text(encoding="utf-8"))
        corrupt(record)
        verified.write_text(json.dumps(record), encoding="utf-8")
        capsys.readouterr()
        code = main(["remediate", str(verified), str(doc),
                     "--backend", backend_arg("mismatch_run.json")])
        assert code == EXIT_PIPELINE
        assert capsys.readouterr().err == (
            f"terminators: error: {verified}: {message}\n")

    @pytest.mark.parametrize("artifact, corrupt, message", [
        ("verifications.json", lambda r: r["verifications"][0].pop("label"),
         "missing key 'label'"),
        ("verifications.json",
         lambda r: r["verifications"][0].update(lexical_score="high"),
         "expected a number"),
        ("terms.json", lambda r: r["terms"][0].pop("source"),
         "malformed 'terms' entry"),
        ("remediation.json",
         lambda r: r["outcomes"][0].update(old_source="nowhere"),
         "unparseable source"),
        ("plans.json", lambda r: r["plans"][0].pop("scenario_fingerprint"),
         "malformed 'plans' entry"),
        ("plans.json", lambda r: r["plans"][0].pop("term"),
         "malformed 'plans' entry: AccountabilityPlan: missing key 'term'"),
        ("plans.json",
         lambda r: r["plans"][0].update(possible_accountability_checks="x"),
         "malformed 'plans' entry: AccountabilityPlan."
         "possible_accountability_checks: expected a list"),
        ("run.json", lambda r: r.pop("config"), "malformed run: 'config'"),
        ("run.json", lambda r: r["config"].update(threshold=math.nan),
         "RunConfig.threshold: expected a finite number, got nan"),
        ("verifications.json",
         lambda r: r["verifications"][0].update(lexical_score=math.inf),
         "lexical_score: expected a finite number, got inf"),
        ("run.json", lambda r: r.update(doc_fingerprint="0" * 64),
         "run header fingerprint does not match the stored document"),
        ("terms.json", lambda r: r.update(terms={}),
         "malformed run: 'terms' must be a list"),
        ("verifications.json", lambda r: r["verifications"].pop(),
         "malformed run: 'verifications' do not pair with 'terms' at index 3"),
        ("remediation.json", lambda r: r["outcomes"].reverse(),
         "malformed run: 'outcomes' do not pair with 'terms' at index 0"),
    ], ids=["verification-without-label", "score-not-a-number",
            "term-without-source", "bad-citation", "plan-without-fingerprint",
            "plan-without-term", "checks-not-a-list", "header-without-config",
            "threshold-not-finite", "score-not-finite",
            "header-fingerprint-not-the-document", "terms-not-a-list",
            "fewer-verifications-than-terms", "outcomes-out-of-order"])
    def test_malformed_run_directory_exits_two(
        self, tmp_path, capsys, artifact, corrupt, message
    ):
        run_dir, _ = TestRunResumeReport().completed_run(tmp_path, capsys)
        path = run_dir / artifact
        record = json.loads(path.read_text(encoding="utf-8"))
        corrupt(record)
        path.write_text(json.dumps(record), encoding="utf-8")
        assert main(["report", str(run_dir)]) == EXIT_PIPELINE
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["run", "resume", "report"])
    def test_run_directory_without_document_exits_two(
        self, tmp_path, capsys, verb
    ):
        run_dir, _ = TestRunResumeReport().completed_run(tmp_path, capsys)
        (run_dir / "document.json").unlink()
        argv = {
            "run": excerpt_run_argv(tmp_path, SCRIPTS / "happy_run.json"),
            "resume": ["resume", str(run_dir),
                       "--backend", backend_arg("happy_run.json")],
            "report": ["report", str(run_dir)],
        }[verb]
        assert main(argv) == EXIT_PIPELINE
        assert capsys.readouterr().err == (
            f"terminators: error: {run_dir}: malformed run: document.json: "
            "no such file\n"
        )

    @pytest.mark.parametrize("name, first_line", [
        ("OpenAI_ToS.txt", "1"), ("Renamed.txt", "106"),
    ], ids=["renumbered", "renamed"])
    def test_same_text_under_another_name_or_numbering_exits_two(
        self, tmp_path, capsys, name, first_line
    ):
        """The run id keys on the text alone: a run of the same text named
        or numbered otherwise finds the stored run's directory and must not
        return that run, whose citations carry the other name and lines."""
        run_dir, _ = TestRunResumeReport().completed_run(tmp_path, capsys)
        before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
        doc = tmp_path / name
        doc.write_bytes((FIXTURES / "openai_tos_excerpt.txt").read_bytes())
        argv = excerpt_run_argv(tmp_path, SCRIPTS / "happy_run.json")
        argv[1], argv[5] = str(doc), first_line
        assert main(argv) == EXIT_PIPELINE
        assert capsys.readouterr().err == (
            f"terminators: error: {run_dir}: holds OpenAI_ToS.txt from line "
            "106; remove it or use another --out\n"
        )
        assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before

    def test_phase_record_not_an_object_exits_two(self, tmp_path, capsys):
        run_dir, _ = TestRunResumeReport().completed_run(tmp_path, capsys)
        (run_dir / "terms.json").write_text("[]", encoding="utf-8")
        assert main(["report", str(run_dir)]) == EXIT_PIPELINE
        assert capsys.readouterr().err == (
            f"terminators: error: {run_dir}: malformed run: a phase record "
            "must be a JSON object\n"
        )

    def test_failed_re_verification_exits_three(self, tmp_path, capsys):
        """remediate with a script that answers nothing: the lexical search
        proposes a span for the unverifiable term, and verifying it fails."""
        doc, _, s2, _, _ = TestStageChain().run_chain(tmp_path)
        empty = write_script(tmp_path / "empty.json", [])
        code = main([
            "remediate", str(s2), str(doc), "--no-llm-resource",
            "--backend", f"scripted:{empty}",
        ])
        assert code == EXIT_BACKEND
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "terminators: backend error (unmatched): no script entry matches "
            "request "
        )
        assert captured.err.endswith(" (verification)\n")

    def test_too_deep_stage_file_exits_two(self, tmp_path, capsys):
        doc = copy_excerpt(tmp_path)
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000, encoding="utf-8")
        code = main([
            "verify", str(deep), str(doc),
            "--backend", backend_arg("verify_supported.json"),
        ])
        assert code == EXIT_PIPELINE
        err = capsys.readouterr().err
        assert "nested too deeply" in err
        assert "Traceback" not in err

    def edited_stage_file(self, tmp_path, edit):
        """An extract stage file after edit(record), which changes the
        embedded document but leaves its fingerprint field as it was."""
        doc = copy_excerpt(tmp_path)
        stage = tmp_path / "stage1.json"
        assert main(extract_args(doc) + ["--out", str(stage)]) == EXIT_OK
        record = json.loads(stage.read_text(encoding="utf-8"))
        edit(record)
        stage.write_text(json.dumps(record), encoding="utf-8")
        return doc, stage

    def stage_verb(self, verb, stage, doc):
        argv = [verb, str(stage)]
        argv += (["--scenario-file", str(SCENARIO_TXT)] if verb == "plan"
                 else [str(doc)])
        return main(argv + ["--backend", backend_arg("mismatch_run.json")])

    @pytest.mark.parametrize("verb", ["verify", "plan"])
    def test_edited_embedded_line_exits_two(self, tmp_path, capsys, verb):
        def edit(record):
            record["document"]["lines"][2][1] = "Output is always accurate."

        doc, stage = self.edited_stage_file(tmp_path, edit)
        assert self.stage_verb(verb, stage, doc) == EXIT_PIPELINE
        captured = capsys.readouterr()
        assert f"{stage}: stored lines no longer match the fingerprint" in (
            captured.err
        )
        assert "Output is always accurate." not in captured.out
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("verb", ["verify", "plan"])
    def test_renumbered_embedded_lines_exit_two(self, tmp_path, capsys, verb):
        """Numbered 106, 108, 110, ... the document seems to reach line 128,
        so a term citing line 125, past its twelve lines, would index past
        their end."""
        def edit(record):
            for i, line in enumerate(record["document"]["lines"]):
                line[0] = 106 + 2 * i
            record["terms"][0]["source"] = "OpenAI_ToS.txt:125-125"

        doc, stage = self.edited_stage_file(tmp_path, edit)
        assert self.stage_verb(verb, stage, doc) == EXIT_PIPELINE
        err = capsys.readouterr().err
        assert (f"{stage}: stored lines are not [int, str] pairs counting up "
                "from first_line") in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("verb", ["verify", "plan"])
    def test_embedded_lines_numbered_from_zero_exit_two(self, tmp_path,
                                                        capsys, verb):
        """Renumbered from line 0 with the fingerprint intact: no ingest
        would have made it, and both verbs refuse it by the stage file's
        name."""
        def edit(record):
            record["document"]["first_line"] = 0
            for i, line in enumerate(record["document"]["lines"]):
                line[0] = i

        doc, stage = self.edited_stage_file(tmp_path, edit)
        assert self.stage_verb(verb, stage, doc) == EXIT_PIPELINE
        captured = capsys.readouterr()
        assert captured.err == (
            f"terminators: error: {stage}: first_line must be >= 1, not 0\n")
        assert captured.out == ""

    def test_script_file_not_json_names_it(self, tmp_path, capsys):
        doc = copy_excerpt(tmp_path)
        script = tmp_path / "script.json"
        script.write_text("match everything", encoding="utf-8")
        code = main(extract_args(doc)[:-2] + ["--backend", f"scripted:{script}"])
        assert code == EXIT_PIPELINE
        err = capsys.readouterr().err
        assert f"{script}: not JSON: Expecting value" in err
        assert "Traceback" not in err

    def test_run_file_not_json_names_it(self, tmp_path, capsys):
        run_dir, _ = TestRunResumeReport().completed_run(tmp_path, capsys)
        (run_dir / "terms.json").write_text("{terms", encoding="utf-8")
        assert main(["report", str(run_dir)]) == EXIT_PIPELINE
        err = capsys.readouterr().err
        assert "malformed run: terms.json: not JSON: Expecting" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("verb", ["verify", "extract"])
    def test_file_not_utf8_names_it(self, tmp_path, capsys, verb):
        """A stage file (verify) or a script file (extract) that is not
        UTF-8."""
        doc = copy_excerpt(tmp_path)
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe[\x00]\x00")
        if verb == "verify":
            argv = ["verify", str(path), str(doc),
                    "--backend", backend_arg("verify_supported.json")]
        else:
            argv = extract_args(doc)[:-2] + ["--backend", f"scripted:{path}"]
        assert main(argv) == EXIT_PIPELINE
        err = capsys.readouterr().err
        assert f"{path}: not UTF-8: " in err
        assert "Traceback" not in err

    def test_too_deep_script_file_exits_two(self, tmp_path, capsys):
        doc = copy_excerpt(tmp_path)
        deep = tmp_path / "deep_script.json"
        deep.write_text("[" * 100_000, encoding="utf-8")
        code = main(extract_args(doc)[:-2] + ["--backend", f"scripted:{deep}"])
        assert code == EXIT_PIPELINE
        err = capsys.readouterr().err
        assert "nested too deeply" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("entry", [
        {"match": 5, "response_file": "listing4_terms.json"},
        {"match": "106:", "response_file": 5},
    ], ids=["match-not-a-string", "response-file-not-a-string"])
    def test_malformed_script_entry_exits_two(self, tmp_path, capsys, entry):
        doc = copy_excerpt(tmp_path)
        script = tmp_path / "script.json"
        script.write_text(json.dumps([entry]), encoding="utf-8")
        code = main(extract_args(doc)[:-2] + ["--backend", f"scripted:{script}"])
        assert code == EXIT_PIPELINE
        err = capsys.readouterr().err
        assert "entry 0 must be an object with string 'match'" in err
        assert "Traceback" not in err

    def test_too_deep_scenario_file_exits_two(self, tmp_path, capsys):
        doc = copy_excerpt(tmp_path)
        deep = tmp_path / "scenario.json"
        deep.write_text("[" * 100_000, encoding="utf-8")
        code = main([
            "run", str(doc), "--strategy", "paragraph", "--first-line", "106",
            "--backend", backend_arg("happy_run.json"),
            "--scenario-file", str(deep), "--out", str(tmp_path / "runs"),
        ])
        assert code == EXIT_PIPELINE
        err = capsys.readouterr().err
        assert f"{deep}: JSON nested too deeply" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("artifact", ["run.json", "verifications.json"])
    def test_too_deep_run_file_exits_two(self, tmp_path, capsys, artifact):
        run_dir, _ = TestRunResumeReport().completed_run(tmp_path, capsys)
        (run_dir / artifact).write_text("[" * 100_000, encoding="utf-8")
        assert main(["report", str(run_dir)]) == EXIT_PIPELINE
        err = capsys.readouterr().err
        assert f"malformed run: {artifact}: JSON nested too deeply" in err
        assert "Traceback" not in err

    def test_plan_requires_scenario(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["plan", "stage.json", "--backend", "live"])
        assert exc.value.code == 1
        capsys.readouterr()

    def test_missing_backend_exits_three(self, tmp_path, capsys):
        doc = copy_excerpt(tmp_path)
        code = main([
            "extract", str(doc), "--strategy", "paragraph",
            "--first-line", "106",
        ])
        assert code == EXIT_BACKEND
        assert "no backend configured" in capsys.readouterr().err

    def test_live_backend_without_credential_exits_three(
        self, tmp_path, capsys, monkeypatch
    ):
        """The credential check comes before any request, so no socket
        opens. requests is imported first, with the real socket."""
        import requests  # noqa: F401

        def refuse(*args, **kwargs):
            raise AssertionError("network access attempted")

        monkeypatch.setattr(socket, "socket", refuse)
        monkeypatch.setattr(socket, "create_connection", refuse)
        monkeypatch.delenv("TERMINATORS_API_KEY", raising=False)
        monkeypatch.delenv("TERMINATORS_CACHE", raising=False)
        code = main([
            "run", str(copy_excerpt(tmp_path)), "--backend", "live",
            "--out", str(tmp_path / "runs"),
        ])
        assert code == EXIT_BACKEND
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "terminators: backend error (auth): credential variable "
            "TERMINATORS_API_KEY is not set\n"
        )

    def test_best_effort_run_where_every_item_fails_warns_once(self,
                                                              tmp_path):
        """Both chunks fail on the missing credential, before any request:
        the run exits 0, records both, and says so once on stderr. The CLI
        runs in its own process, as the console script does, so its logging
        writes to stderr; that process refuses every socket, as above."""
        code = (
            "import socket, sys\n"
            "import requests\n"
            "def refuse(*args, **kwargs):\n"
            "    raise AssertionError('network access attempted')\n"
            "socket.socket = socket.create_connection = refuse\n"
            "from terminators.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        env = {name: value for name, value in os.environ.items()
               if name not in ("TERMINATORS_API_KEY", "TERMINATORS_CACHE")}
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.dirname(os.path.dirname(cli.__file__)),
             env.get("PYTHONPATH", "")])
        out_root = tmp_path / "runs"
        proc = subprocess.run(
            [sys.executable, "-c", code, "run", str(copy_excerpt(tmp_path)),
             "--strategy", "paragraph", "--first-line", "106",
             "--backend", "live", "--best-effort", "--out", str(out_root)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stderr == (
            "every item failed and was recorded (2); first: auth: credential "
            "variable TERMINATORS_API_KEY is not set\n")
        assert "terms extracted: 0" in proc.stdout
        (run_dir,) = out_root.iterdir()
        record = json.loads((run_dir / "terms.json").read_text(encoding="utf-8"))
        assert [f["chunk_id"] for f in record["failures"]] == [
            c["chunk_id"] for c in record["coverage"]]
        assert {f["error"] for f in record["failures"]} == {
            "credential variable TERMINATORS_API_KEY is not set"}

    def test_best_effort_remediate_where_every_term_fails_warns_once(
        self, tmp_path, capsys, caplog, monkeypatch
    ):
        """mismatch_run.json's verification leaves one term of four
        unsupported. Re-sourcing it fails on the missing credential, before
        any request: remediate exits 0, records the failure in the term's
        trail, and warns once, counting only the term it re-sourced."""
        import requests  # noqa: F401

        def refuse(*args, **kwargs):
            raise AssertionError("network access attempted")

        monkeypatch.setattr(socket, "socket", refuse)
        monkeypatch.setattr(socket, "create_connection", refuse)
        monkeypatch.delenv("TERMINATORS_API_KEY", raising=False)
        monkeypatch.delenv("TERMINATORS_CACHE", raising=False)
        doc, _, verified, _, _ = TestStageChain().run_chain(tmp_path)
        out = tmp_path / "remediated.json"
        with caplog.at_level(logging.WARNING):
            assert main(["remediate", str(verified), str(doc), "--backend",
                         "live", "--best-effort", "--out", str(out)]) == EXIT_OK
        assert [r.getMessage() for r in caplog.records] == [
            "every item failed and was recorded (1); first: auth: credential "
            "variable TERMINATORS_API_KEY is not set"]
        outcomes = json.loads(out.read_text(encoding="utf-8"))["outcomes"]
        assert [o["action"] for o in outcomes] == [
            "kept_supported", "kept_supported", "kept_supported", "discarded"]
        assert [e["note"] for e in outcomes[3]["trail"]] == [
            "re-sourcing failed: credential variable TERMINATORS_API_KEY is "
            "not set"]

    def test_unknown_backend_spec(self, tmp_path, capsys):
        doc = copy_excerpt(tmp_path)
        code = main(extract_args(doc)[:-2] + ["--backend", "psychic"])
        assert code == EXIT_BACKEND
        assert "unknown backend spec" in capsys.readouterr().err

    def test_empty_scripted_path(self, tmp_path, capsys):
        doc = copy_excerpt(tmp_path)
        code = main(extract_args(doc)[:-2] + ["--backend", "scripted:"])
        assert code == EXIT_BACKEND
        assert "needs a script path" in capsys.readouterr().err

    def test_unmatched_script_exits_three(self, tmp_path, capsys):
        doc = copy_excerpt(tmp_path)
        empty = tmp_path / "empty.json"
        empty.write_text("[]", encoding="utf-8")
        code = main(extract_args(doc)[:-2] + [
            "--backend", f"scripted:{empty}",
        ])
        assert code == EXIT_BACKEND
        assert "backend error (unmatched)" in capsys.readouterr().err


NOT_JSON = "I would rather not answer in JSON."
NO_CHECKS = json.dumps({"possible_accountability_checks": ["", "   "]})

# Per phase: the run script, the matcher placed first with an answer the
# phase cannot use (every retry with the format reminder matches it again),
# and the run-directory file that records the failure under --best-effort.
UNUSABLE_ANSWERS = {
    "extraction": (HAPPY_RUN_ENTRIES, "108: Output may not always", NOT_JSON,
                   "terms.json"),
    "verification": (HAPPY_RUN_ENTRIES, "backed by the passage it cites",
                     NOT_JSON, "verifications.json"),
    "re-sourcing": (MISMATCH_RUN_ENTRIES, "Locate the single passage",
                    NOT_JSON, "remediation.json"),
    "planning": (HAPPY_RUN_ENTRIES, "You design accountability checks",
                 NOT_JSON, "plans.json"),
    "planning-no-checks": (HAPPY_RUN_ENTRIES,
                           "You design accountability checks", NO_CHECKS,
                           "plans.json"),
}


class TestUnusableAnswers:
    """An answer a phase cannot use is a backend error in every phase."""

    def run_with(self, tmp_path, phase, *extra):
        entries, match, answer, _ = UNUSABLE_ANSWERS[phase]
        answer_file = tmp_path / "answer.txt"
        answer_file.write_text(answer, encoding="utf-8")
        script = tmp_path / "script.json"
        script.write_text(json.dumps(
            [{"match": match, "response_file": str(answer_file)}]
            + [{"match": m, "response_file": str(RESPONSES / name)}
               for m, name in entries]
        ), encoding="utf-8")
        out_root = tmp_path / "runs"
        code = main([
            "run", str(copy_excerpt(tmp_path)),
            "--strategy", "paragraph",
            "--first-line", "106",
            "--backend", f"scripted:{script}",
            "--scenario-file", str(SCENARIO_TXT),
            "--out", str(out_root),
            *extra,
        ])
        return code, out_root

    @pytest.mark.parametrize("phase", UNUSABLE_ANSWERS)
    def test_exits_three(self, tmp_path, capsys, phase):
        code, _ = self.run_with(tmp_path, phase)
        err = capsys.readouterr().err
        assert code == EXIT_BACKEND
        assert "terminators: backend error (malformed_output): " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("phase", UNUSABLE_ANSWERS)
    def test_best_effort_records_the_failure(self, tmp_path, capsys, phase):
        code, out_root = self.run_with(tmp_path, phase, "--best-effort")
        capsys.readouterr()
        assert code == EXIT_OK
        (run_dir,) = out_root.iterdir()
        _, _, answer, record = UNUSABLE_ANSWERS[phase]
        needle = ("backend produced no usable checks" if answer == NO_CHECKS
                  else "output after format reminder")
        assert needle in (run_dir / record).read_text(encoding="utf-8")


EXPORTED_ERRORS = sorted(
    (obj for obj in vars(terminators).values()
     if inspect.isclass(obj) and issubclass(obj, Exception)),
    key=lambda cls: cls.__name__,
)


def make_error(cls):
    try:
        arity = len(inspect.signature(cls).parameters)
    except ValueError:  # a plain Exception subclass
        arity = 1
    return cls(*[f"arg{i}" for i in range(arity)])


def test_every_package_error_is_exported():
    names = {cls.__name__ for cls in EXPORTED_ERRORS}
    assert {"BackendError", "IngestError", "LifecycleError", "ResumeError",
            "SchemaError", "SpanError"} <= names


def test_every_package_error_derives_from_the_base():
    """A library caller catches every failure the package raises on purpose
    with one class."""
    modules = [importlib.import_module(f"terminators.{info.name}")
               for info in pkgutil.iter_modules(terminators.__path__)]
    defined = {obj for module in modules for obj in vars(module).values()
               if inspect.isclass(obj) and issubclass(obj, BaseException)
               and obj.__module__ == module.__name__}
    assert {cls.__name__ for cls in defined} >= {
        "TerminatorsError", "BackendError", "IngestError", "LifecycleError",
        "ResumeError", "SchemaError", "SpanError"}
    assert [cls.__name__ for cls in defined
            if not issubclass(cls, terminators.TerminatorsError)] == []


def test_exit_two_handler_names_no_package_error_but_the_base():
    handlers = [node for node in ast.walk(ast.parse(inspect.getsource(main)))
                if isinstance(node, ast.ExceptHandler)]
    assert [sorted(name.id for name in ast.walk(handler.type)
                   if isinstance(name, ast.Name)) for handler in handlers] == [
        ["BackendError"], ["OSError", "TerminatorsError", "ValueError"]]


@pytest.mark.parametrize("cls", EXPORTED_ERRORS, ids=lambda c: c.__name__)
def test_exported_errors_exit_with_their_code(monkeypatch, capsys, cls):
    def handler(args):
        raise make_error(cls)

    monkeypatch.setitem(cli._HANDLERS, "report", handler)
    code = main(["report", "runs/x"])
    err = capsys.readouterr().err
    assert code == (EXIT_BACKEND if issubclass(cls, terminators.BackendError)
                    else EXIT_PIPELINE)
    assert err.startswith("terminators: ")
    assert "Traceback" not in err
