import builtins
import gc
import hashlib
import io
import json
import logging
import os
import re
import select
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import reaction_lens
from reaction_lens.cli import EXIT_DATA, EXIT_IO, EXIT_OK, EXIT_SCHEMA, EXIT_USAGE, entry, main
from reaction_lens.artifacts import load_lexicon
from reaction_lens.cleaning import _CONTROL_RANGES
from reaction_lens.corpus_io import corpus_rows
from reaction_lens.errors import CorruptArtifact, DegenerateRange

from oracles import (
    Counts,
    oracle_clean,
    oracle_lexicon,
    oracle_load_corpus,
    oracle_load_entries,
    oracle_nearest_half,
    oracle_star_vectors,
    oracle_train_mean,
)

HEADER = "message,like,love,wow,haha,sad,angry,thankful\n"
JSONL_ROW = (
    '{"message": "%s", "like": 0, "love": 1, "wow": 0, "haha": 0,'
    ' "sad": 0, "angry": 0, "thankful": 0}\n'
)


def write_two_entry_corpus(path):
    # Two training entries: {a,b} all-love and {b,c} all-wow.
    path.write_text(
        HEADER + "a b,0,1,0,0,0,0,0\nb c,0,0,1,0,0,0,0\n", encoding="utf-8"
    )


def run_python(*args, stdin=None):
    """Run a fresh interpreter with this package on its path."""
    src = str(Path(reaction_lens.__file__).parents[1])
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": src},
        input=stdin,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.fixture
def synth_corpus(tmp_path):
    path = tmp_path / "corpus.csv"
    assert main([
        "synth", "--output", str(path), "--rows", "400",
        "--vocab-size", "60", "--seed", "13",
    ]) == EXIT_OK
    return path


class TestSynthCommand:
    def test_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert main(["synth", "--output", str(path), "--rows", "100", "--seed", "4"]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        assert "wrote 100 rows" in capsys.readouterr().out

    def test_invalid_spec_exit_code(self, tmp_path):
        assert main(["synth", "--output", str(tmp_path / "x"), "--rows", "0"]) == EXIT_DATA

    @pytest.mark.parametrize("flags", [
        ["--like-variability", "inf"], ["--like-variability", "1e200"],
        ["--reaction-scale", "nan"], ["--affinity-concentration", "nan"],
        ["--affinity-concentration", "inf"], ["--affinity", "1,nan,0,0,0"],
    ])
    def test_non_finite_parameter_is_invalid_spec(self, tmp_path, flags, capsys):
        out = tmp_path / "x.csv"
        assert main(["synth", "--output", str(out), "--rows", "10", *flags]) == EXIT_DATA
        assert "degenerate data" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags", [
        ["--reaction-scale", "1e200"],
        ["--reaction-scale", "1e4", "--like-dominance", "0.9999999999999999"],
    ])
    def test_beyond_poisson_limit_is_invalid_spec(self, tmp_path, flags, capsys):
        out = tmp_path / "x.csv"
        assert main(["synth", "--output", str(out), "--rows", "3", *flags]) == EXIT_DATA
        assert "Poisson limit" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags", [
        ["--length-min", "100000000", "--length-max", "100000000"],
        ["--vocab-size", "1000000000000"],
    ])
    def test_oversized_spec_is_invalid_spec(self, tmp_path, flags, capsys):
        out = tmp_path / "x.csv"
        assert main(["synth", "--output", str(out), "--rows", "3", *flags]) == EXIT_DATA
        assert "degenerate data" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestCleanCommand:
    def test_drop_report_and_idempotence(self, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        raw.write_text(
            HEADER
            + "hello @u world,1,1,0,0,0,0,0\n"
            + "http://only.url 123,0,1,0,0,0,0,0\n"
            + "ok text,2,0,1,0,0,0,0\n",
            encoding="utf-8",
        )
        cleaned = tmp_path / "clean.csv"
        assert main(["clean", "--input", str(raw), "--output", str(cleaned)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "3 rows -> 2 kept" in out
        assert "1 empty after cleaning" in out
        manifest = json.loads((tmp_path / "clean.csv.manifest.json").read_text())
        assert manifest["row_drops"]["empty_after_cleaning"] == 1
        assert manifest["row_drops"]["rows_out"] == 2
        assert manifest["command"] == "clean"
        assert manifest["inputs"][0]["path"] == str(raw)

        # cleaning the cleaned file drops nothing and changes no message text
        again = tmp_path / "again.csv"
        assert main(["clean", "--input", str(cleaned), "--output", str(again)]) == EXIT_OK
        assert again.read_bytes() == cleaned.read_bytes()
        manifest2 = json.loads((tmp_path / "again.csv.manifest.json").read_text())
        assert manifest2["row_drops"]["empty_after_cleaning"] == 0

    def test_token_removals_and_messages_match_the_oracle(self, tmp_path):
        # Every cleaning rule fires, with a malformed row and a row left empty among them.
        messages = [
            "ස\u200dිංහල w1\x01w2 \u200bW3",  # ZWJ, a control and a format character
            "see https://x.lk and www.y.lk HTTP://Z.LK now",
            "mail me@x.lk @user #tag #",
            "中文 दab hi\U0001f600 ok",
            "saha SAHA Mama w4 mamas",
            "123 ෧෨ 4෦5 W5x",
            "http://only.url 99",
            "HeLLo World",
        ]
        raw = tmp_path / "raw.csv"
        raw.write_text(
            HEADER + "".join(f"{message},1,0,2,0,0,0,0\n" for message in messages)
            + "bad,x,0,0,0,0,0,0\n",
            encoding="utf-8",
        )
        stop = tmp_path / "stop.txt"
        stop.write_text("saha\nMama\n", encoding="utf-8")
        cleaned = tmp_path / "c.csv"
        assert main(["clean", "--input", str(raw), "--output", str(cleaned),
                     "--stopwords", str(stop), "--casefold-ascii"]) == EXIT_OK

        errors = []
        rows = oracle_load_corpus(raw, errors=errors)
        assert len(rows) == len(messages) and len(errors) == 1
        expected, totals = [], Counter()
        for message, _, _ in rows:
            tokens, counters = oracle_clean(message, {"saha", "Mama"}, True, _CONTROL_RANGES)
            expected += [" ".join(tokens)] if tokens else []
            totals.update(counters)
        manifest = json.loads((tmp_path / "c.csv.manifest.json").read_text())
        removals = manifest["row_drops"]["token_removals"]
        assert removals == dict(totals)
        assert all(count > 0 for count in removals.values()), removals
        assert [message for message, _, _ in corpus_rows(cleaned, "csv")] == expected
        assert len(expected) == len(messages) - 1

    def test_stopword_file_used(self, tmp_path):
        raw = tmp_path / "raw.csv"
        raw.write_text(HEADER + "the cat,0,1,0,0,0,0,0\n", encoding="utf-8")
        stop = tmp_path / "stop.txt"
        stop.write_text("the\n", encoding="utf-8")
        cleaned = tmp_path / "c.csv"
        assert main([
            "clean", "--input", str(raw), "--output", str(cleaned),
            "--stopwords", str(stop),
        ]) == EXIT_OK
        assert "cat,0,1" in cleaned.read_text(encoding="utf-8")
        assert "the cat" not in cleaned.read_text(encoding="utf-8")
        manifest = json.loads((tmp_path / "c.csv.manifest.json").read_text())
        assert manifest["inputs"][1] == {
            "path": str(stop), "sha256": hashlib.sha256(b"the\n").hexdigest(), "bytes": 4}

    def test_missing_stopword_file_no_partial_output(self, tmp_path):
        raw = tmp_path / "raw.csv"
        raw.write_text(HEADER + "x,0,1,0,0,0,0,0\n", encoding="utf-8")
        cleaned = tmp_path / "out.csv"
        code = main([
            "clean", "--input", str(raw), "--output", str(cleaned),
            "--stopwords", str(tmp_path / "missing.txt"),
        ])
        assert code == EXIT_IO
        assert not cleaned.exists()

    def test_pipe_input_is_read_once(self, tmp_path):
        # The manifest must not hash a pipe away before the command reads it.
        out = tmp_path / "o.csv"
        result = run_python("-m", "reaction_lens.cli", "clean", "--input", "/dev/stdin",
                            "--output", str(out), stdin=HEADER + "a b,1,0,0,0,0,0,0\n")
        assert result.returncode == EXIT_OK, result.stderr
        assert out.read_text(encoding="utf-8").splitlines()[1:] == ["a b,1,0,0,0,0,0,0"]
        manifest = json.loads((tmp_path / "o.csv.manifest.json").read_text())
        assert manifest["inputs"] == [{"path": "/dev/stdin", "sha256": None, "bytes": None}]

    def test_missing_input(self, tmp_path):
        code = main([
            "clean", "--input", str(tmp_path / "no.csv"),
            "--output", str(tmp_path / "o.csv"),
        ])
        assert code == EXIT_IO

    def test_jsonl_round(self, tmp_path):
        raw = tmp_path / "raw.jsonl"
        raw.write_text(
            '{"message": "hi there", "like": 1, "love": 2, "wow": 0, "haha": 0, "sad": 0, "angry": 0, "thankful": 0}\n',
            encoding="utf-8",
        )
        cleaned = tmp_path / "c.jsonl"
        assert main([
            "clean", "--input", str(raw), "--output", str(cleaned),
            "--format", "jsonl",
        ]) == EXIT_OK
        row = json.loads(cleaned.read_text(encoding="utf-8"))
        assert row["message"] == "hi there"
        assert row["love"] == 2

    def test_escaped_surrogate_id_is_a_malformed_row(self, tmp_path, capsys):
        raw = tmp_path / "raw.jsonl"
        raw.write_text(
            JSONL_ROW.replace("}", ', "id": "a1"}') % "kept"
            + JSONL_ROW.replace("}", ', "id": "b\\udc99"}') % "dropped",
            encoding="utf-8",
        )
        cleaned = tmp_path / "c.jsonl"
        assert main([
            "clean", "--input", str(raw), "--output", str(cleaned),
            "--format", "jsonl", "--columns", "id=id",
        ]) == EXIT_OK
        assert "(1 malformed" in capsys.readouterr().out
        rows = [json.loads(line) for line in cleaned.read_text(encoding="utf-8").splitlines()]
        assert [(row["message"], row["id"]) for row in rows] == [("kept", "a1")]

    def test_malformed_rows_reported_once(self, tmp_path):
        raw = tmp_path / "raw.csv"
        bad = "".join(f"bad{i},x,0,0,0,0,0,0\n" for i in range(12))
        raw.write_text(HEADER + bad + "ok,1,0,0,0,0,0,0\n", encoding="utf-8")
        result = run_python(
            "-m", "reaction_lens.cli", "clean", "--input", str(raw),
            "--output", str(tmp_path / "c.csv"),
        )
        assert result.returncode == EXIT_OK, result.stderr
        assert "13 rows -> 1 kept (12 malformed" in result.stdout
        lines = Counter(re.findall(r"\bline (\d+)\b", result.stderr))
        assert lines, result.stderr
        assert max(lines.values()) == 1, result.stderr

    def test_oversized_field_is_a_malformed_row(self, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        raw.write_text(
            HEADER + "a,1,0,0,0,0,0,0\n" + "x" * 200_000 + ",1,0,0,0,0,0,0\n"
            + "b,0,1,0,0,0,0,0\n",
            encoding="utf-8",
        )
        cleaned = tmp_path / "c.csv"
        assert main(["clean", "--input", str(raw), "--output", str(cleaned)]) == EXIT_OK
        assert "(1 malformed" in capsys.readouterr().out
        manifest = json.loads((tmp_path / "c.csv.manifest.json").read_text())
        assert manifest["row_drops"]["malformed_rows"] == 1
        assert manifest["row_drops"]["rows_out"] == 2


class TestStatsCommand:
    def test_reference_percentages(self, tmp_path, capsys):
        # One row per reaction carrying large real-world reaction totals.
        totals = {
            "like": 528_060_209, "love": 12_526_942, "wow": 1_906_174,
            "haha": 6_524_139, "sad": 2_987_589, "angry": 1_329_552,
            "thankful": 13_637,
        }
        path = tmp_path / "t.csv"
        names = ("like", "love", "wow", "haha", "sad", "angry", "thankful")
        rows = "".join(
            "m," + ",".join(str(totals[n]) if n == target else "0" for n in names) + "\n"
            for target in names
        )
        path.write_text(HEADER + rows, encoding="utf-8")
        out_json = tmp_path / "stats.json"
        assert main(["stats", "--input", str(path), "--output", str(out_json)]) == EXIT_OK
        text = capsys.readouterr().out
        assert "95.43" in text      # like, all column
        assert "49.56" in text      # love, core column
        payload = json.loads(out_json.read_text(encoding="utf-8"))
        assert payload["totals"] == totals
        assert abs(payload["all_percent"]["like"] - 95.43) < 0.01
        assert abs(payload["core_percent"]["love"] - 49.56) < 0.01

    def test_schema_mismatch_exit(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("message,like\nx,1\n", encoding="utf-8")
        assert main(["stats", "--input", str(path)]) == EXIT_SCHEMA

    def test_unterminated_quote_costs_one_row(self, tmp_path, capsys):
        path = tmp_path / "open.csv"
        path.write_text(
            HEADER + '"bad row,1,1,1,1,1,1,0\ngood,1,2,0,0,0,0,0\nalso good,0,1,1,0,0,0,0\n',
            encoding="utf-8",
        )
        out_json = tmp_path / "stats.json"
        assert main(["stats", "--input", str(path), "--output", str(out_json)]) == EXIT_OK
        assert "rows: 2   (malformed skipped: 1)" in capsys.readouterr().out
        payload = json.loads(out_json.read_text(encoding="utf-8"))
        assert payload["totals"]["love"] == 3

    def test_count_beyond_float_range_exits_ok(self, tmp_path, capsys):
        # 10**400 is a valid count but has no float value; the percentages
        # are still finite.
        path = tmp_path / "huge.csv"
        path.write_text(HEADER + f"m,{10**400},1,0,0,0,0,0\n", encoding="utf-8")
        out_json = tmp_path / "stats.json"
        assert main(["stats", "--input", str(path), "--output", str(out_json)]) == EXIT_OK
        assert "100.00" in capsys.readouterr().out
        payload = json.loads(out_json.read_text(encoding="utf-8"))
        assert payload["totals"]["like"] == 10**400
        assert payload["all_percent"]["like"] == 100.0
        assert payload["core_percent"]["love"] == 100.0

    def test_output_writes_manifest(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        path.write_text(HEADER + "a,1,0,0,0,0,0,0\nbad,x,0,0,0,0,0,0\n", encoding="utf-8")
        out_json = tmp_path / "stats.json"
        assert main(["stats", "--input", str(path), "--output", str(out_json)]) == EXIT_OK
        manifest = json.loads((tmp_path / "stats.json.manifest.json").read_text())
        assert manifest["command"] == "stats"
        assert [entry["path"] for entry in manifest["inputs"]] == [str(path)]
        assert manifest["outputs"] == [str(out_json)]
        assert manifest["row_drops"] == {"malformed_rows": 1}
        assert manifest["finished_at"]

    def test_no_output_writes_no_manifest(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        write_two_entry_corpus(path)
        assert main(["stats", "--input", str(path)]) == EXIT_OK
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]

    def test_missing_output_dir_names_target(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        write_two_entry_corpus(path)
        target = tmp_path / "nodir" / "x.json"
        assert main(["stats", "--input", str(path), "--output", str(target)]) == EXIT_IO
        err = capsys.readouterr().err
        assert f"'{target}'" in err
        assert f"{target}." not in err  # the temporary file is <target>.<pid>.tmp

    def test_output_onto_directory_names_target(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        write_two_entry_corpus(path)
        target = tmp_path / "out"
        target.mkdir()
        assert main(["stats", "--input", str(path), "--output", str(target)]) == EXIT_IO
        err = capsys.readouterr().err
        assert f"'{target}'" in err
        assert f"{target}." not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "t.csv"]

    def test_oversized_header_field_exits_schema(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("x" * 200_000 + "," + HEADER + "a,1,0,0,0,0,0,0\n", encoding="utf-8")
        result = run_python("-m", "reaction_lens.cli", "stats", "--input", str(path))
        assert result.returncode == EXIT_SCHEMA
        assert "unreadable CSV header" in result.stderr
        assert "Traceback" not in result.stderr


class TestTrainPredict:
    def test_end_to_end_two_entry_example(self, tmp_path, capsys):
        corpus = tmp_path / "c.csv"
        write_two_entry_corpus(corpus)
        lexicon = tmp_path / "core.lex"
        assert main([
            "train", "--input", str(corpus), "--output", str(lexicon),
            "--model", "core",
        ]) == EXIT_OK
        capsys.readouterr()
        messages = tmp_path / "msgs.txt"
        messages.write_text("a c\nzz\n", encoding="utf-8")
        out = tmp_path / "pred.txt"
        assert main([
            "predict", "--lexicon", str(lexicon), "--input", str(messages),
            "--output", str(out),
        ]) == EXIT_OK
        lines = out.read_text(encoding="utf-8").splitlines()
        values = [float(v) for v in lines[0].split(" ")[0].split(",")]
        assert values == [0.5, 0.5, 0.0, 0.0, 0.0]
        assert lines[0].endswith("coverage=1")
        # unknown words fall back to the train mean with coverage 0
        fallback = [float(v) for v in lines[1].split(" ")[0].split(",")]
        assert fallback == [0.5, 0.5, 0.0, 0.0, 0.0]
        assert lines[1].endswith("coverage=0")

    def test_train_manifest_counts_the_rows_of_its_summary(self, tmp_path, capsys):
        corpus = tmp_path / "c.csv"
        corpus.write_text(
            HEADER + "a b,0,1,0,0,0,0,0\nlikes only,5,0,0,0,0,0,0\nbad,x,0,0,0,0,0,0\nd,0,0,2,0,0,0,0\n",
            encoding="utf-8",
        )
        lexicon = tmp_path / "core.lex"
        assert main(["train", "--input", str(corpus), "--output", str(lexicon)]) == EXIT_OK
        assert "from 2 entries (1 zero-total rows skipped, 1 malformed)" in capsys.readouterr().out
        manifest = json.loads((tmp_path / "core.lex.manifest.json").read_text())
        assert manifest["row_drops"] == {
            "malformed_rows": 1, "entries_used": 2, "entries_excluded_zero_total": 1,
        }

    def test_predict_writes_manifest(self, tmp_path, capsys):
        corpus = tmp_path / "c.csv"
        write_two_entry_corpus(corpus)
        lexicon = tmp_path / "core.lex"
        assert main(["train", "--input", str(corpus), "--output", str(lexicon)]) == EXIT_OK
        messages = tmp_path / "msgs.txt"
        messages.write_text("a c\nzz\na zz\n\n", encoding="utf-8")
        stop = tmp_path / "stop.txt"
        stop.write_text("q\n", encoding="utf-8")
        out = tmp_path / "pred.txt"
        assert main([
            "predict", "--lexicon", str(lexicon), "--input", str(messages),
            "--output", str(out), "--stopwords", str(stop),
        ]) == EXIT_OK
        manifest = json.loads((tmp_path / "pred.txt.manifest.json").read_text())
        assert manifest["command"] == "predict"
        assert [entry["path"] for entry in manifest["inputs"]] == [
            str(lexicon), str(messages), str(stop)]
        assert manifest["inputs"][2]["sha256"] == hashlib.sha256(b"q\n").hexdigest()
        assert manifest["inputs"][2]["bytes"] == 2
        assert manifest["outputs"] == [str(out)]
        assert manifest["row_drops"] == {
            "messages": 4, "mean_coverage": 0.375, "zero_coverage_share": 0.5,
        }
        assert manifest["finished_at"]

    def test_predict_pipe_input_is_read_once(self, tmp_path):
        corpus = tmp_path / "c.csv"
        write_two_entry_corpus(corpus)
        lexicon = tmp_path / "core.lex"
        assert main(["train", "--input", str(corpus), "--output", str(lexicon)]) == EXIT_OK
        out = tmp_path / "pred.txt"
        result = run_python("-m", "reaction_lens.cli", "predict", "--lexicon", str(lexicon),
                            "--input", "/dev/stdin", "--output", str(out), stdin="a c\nzz\n")
        assert result.returncode == EXIT_OK, result.stderr
        assert len(out.read_text(encoding="utf-8").splitlines()) == 2

    def test_predict_answers_a_piped_message_before_stdin_closes(self, tmp_path):
        # A co-process writes one message and waits for its answer; stdout is a pipe,
        # which Python buffers in blocks unless PYTHONUNBUFFERED is set.
        corpus = tmp_path / "c.csv"
        write_two_entry_corpus(corpus)
        lexicon = tmp_path / "core.lex"
        assert main(["train", "--input", str(corpus), "--output", str(lexicon)]) == EXIT_OK
        env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(reaction_lens.__file__).parents[1])
        with subprocess.Popen(
            [sys.executable, "-m", "reaction_lens.cli", "predict", "--lexicon", str(lexicon)],
            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        ) as proc:
            try:
                proc.stdin.write(b"a c\n")
                proc.stdin.flush()
                ready, _, _ = select.select([proc.stdout], [], [], 10)
                assert ready, "no answer within 10 s"
                assert proc.stdout.readline() == b"0.5,0.5,0,0,0 coverage=1\n"
            finally:
                proc.kill()

    def test_predict_file_and_stdin_end_messages_alike(self, tmp_path):
        # A lone CR stays inside its message; LF and CRLF end one.
        corpus = tmp_path / "c.csv"
        write_two_entry_corpus(corpus)
        lexicon = tmp_path / "core.lex"
        assert main(["train", "--input", str(corpus), "--output", str(lexicon)]) == EXIT_OK
        text = "a\rc\nb c\r\nzz\n"
        messages = tmp_path / "m.txt"
        messages.write_bytes(text.encode("utf-8"))
        from_file = tmp_path / "pred.txt"
        assert main(["predict", "--lexicon", str(lexicon), "--input", str(messages),
                     "--output", str(from_file)]) == EXIT_OK
        result = run_python("-m", "reaction_lens.cli", "predict", "--lexicon", str(lexicon),
                            stdin=text)
        assert result.returncode == EXIT_OK, result.stderr
        assert from_file.read_text(encoding="utf-8") == result.stdout
        assert len(result.stdout.splitlines()) == text.count("\n")

    def test_predict_to_stdout_writes_no_manifest(self, tmp_path, capsys):
        corpus = tmp_path / "c.csv"
        write_two_entry_corpus(corpus)
        lexicon = tmp_path / "core.lex"
        assert main(["train", "--input", str(corpus), "--output", str(lexicon)]) == EXIT_OK
        messages = tmp_path / "msgs.txt"
        messages.write_text("a c\n", encoding="utf-8")
        before = sorted(p.name for p in tmp_path.iterdir())
        capsys.readouterr()
        assert main(["predict", "--lexicon", str(lexicon), "--input", str(messages)]) == EXIT_OK
        assert capsys.readouterr().out.endswith(" coverage=1\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    def test_missing_output_dir_names_target(self, tmp_path, capsys):
        corpus = tmp_path / "c.csv"
        write_two_entry_corpus(corpus)
        target = tmp_path / "nodir" / "m.lex"
        assert main(["train", "--input", str(corpus), "--output", str(target)]) == EXIT_IO
        err = capsys.readouterr().err
        assert f"'{target}'" in err
        assert f"{target}." not in err  # the temporary file is <target>.<pid>.tmp

    def test_escaped_surrogate_message_is_a_malformed_row(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text(JSONL_ROW % "a b" + JSONL_ROW % "bad \\ud800x", encoding="utf-8")
        lexicon = tmp_path / "m.lex"
        assert main([
            "train", "--input", str(corpus), "--output", str(lexicon), "--format", "jsonl",
        ]) == EXIT_OK
        assert "1 malformed" in capsys.readouterr().out
        assert sorted(load_lexicon(lexicon).entries) == ["a", "b"]

    def test_lexicon_embeds_manifest_id(self, tmp_path):
        corpus = tmp_path / "c.csv"
        write_two_entry_corpus(corpus)
        lexicon = tmp_path / "core.lex"
        main(["train", "--input", str(corpus), "--output", str(lexicon), "--model", "core"])
        manifest = json.loads((tmp_path / "core.lex.manifest.json").read_text())
        assert f"#manifest\t{manifest['run_id']}" in lexicon.read_text(encoding="utf-8")

    def test_predict_bad_lexicon_exit(self, tmp_path):
        bad = tmp_path / "bad.lex"
        bad.write_text("#reaction-lexicon v9\n", encoding="utf-8")
        msgs = tmp_path / "m.txt"
        msgs.write_text("a\n", encoding="utf-8")
        assert main(["predict", "--lexicon", str(bad), "--input", str(msgs)]) == EXIT_SCHEMA

    def test_predict_invalid_utf8_input_is_io_error(self, tmp_path, capsys):
        corpus = tmp_path / "c.csv"
        write_two_entry_corpus(corpus)
        lexicon = tmp_path / "core.lex"
        assert main(["train", "--input", str(corpus), "--output", str(lexicon)]) == EXIT_OK
        msgs = tmp_path / "m.txt"
        msgs.write_bytes(b"ok\n\xff\xfe bad\n")
        out = tmp_path / "p.txt"
        out.write_text("earlier output\n", encoding="utf-8")
        code = main([
            "predict", "--lexicon", str(lexicon), "--input", str(msgs),
            "--output", str(out),
        ])
        assert code == EXIT_IO
        assert "i/o error" in capsys.readouterr().err
        # the write is atomic: the earlier file is untouched, no temp file is left
        assert out.read_text(encoding="utf-8") == "earlier output\n"
        assert not list(tmp_path.glob("p.txt.*"))

    # UTF-8 mode reads stdin with surrogateescape; a latin-1 stdin decodes any byte.
    @pytest.mark.parametrize("env", [{"PYTHONUTF8": "1", "LC_ALL": "C"},
                                     {"PYTHONIOENCODING": "latin-1"}])
    def test_predict_stdin_is_strict_utf8_whatever_the_locale(self, tmp_path, env):
        corpus = tmp_path / "c.csv"
        corpus.write_text(HEADER + "ආයුබෝවන් b,0,1,0,0,0,0,0\nb c,0,0,1,0,0,0,0\n",
                          encoding="utf-8")
        lexicon = tmp_path / "core.lex"
        assert main(["train", "--input", str(corpus), "--output", str(lexicon)]) == EXIT_OK

        def predict(stdin):
            return subprocess.run(
                [sys.executable, "-m", "reaction_lens.cli", "predict", "--lexicon", str(lexicon)],
                env={**os.environ, "PYTHONPATH": str(Path(reaction_lens.__file__).parents[1]),
                     **env},
                input=stdin, capture_output=True, timeout=120,
            )

        good = predict("ආයුබෝවන්\n".encode("utf-8"))
        assert good.returncode == EXIT_OK, good.stderr
        assert good.stdout == b"1,0,0,0,0 coverage=1\n"
        bad = predict(b"w0001\n\xff\xfe bad\n")
        assert bad.returncode == EXIT_IO
        assert bad.stderr.startswith(b"reaction-lens: i/o error: 'utf-8' codec can't decode")

    def test_predict_from_stdin_leaves_stdin_open(self, tmp_path, monkeypatch, capsys):
        corpus = tmp_path / "c.csv"
        write_two_entry_corpus(corpus)
        lexicon = tmp_path / "core.lex"
        assert main(["train", "--input", str(corpus), "--output", str(lexicon)]) == EXIT_OK
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"a c\n\xff\n")))
        capsys.readouterr()
        assert main(["predict", "--lexicon", str(lexicon)]) == EXIT_IO
        assert not sys.stdin.closed

    def test_star_training(self, tmp_path, capsys):
        corpus = tmp_path / "c.csv"
        corpus.write_text(
            HEADER + "good stuff,0,3,1,0,0,0,0\nbad stuff,0,0,0,0,2,2,0\n",
            encoding="utf-8",
        )
        lexicon = tmp_path / "star.lex"
        assert main([
            "train", "--input", str(corpus), "--output", str(lexicon),
            "--model", "star",
        ]) == EXIT_OK
        header = lexicon.read_text(encoding="utf-8").splitlines()[1]
        assert "star4" in header

    def test_star_malformed_row_logged_once(self, tmp_path, capsys, caplog):
        corpus = tmp_path / "c.csv"
        corpus.write_text(
            HEADER + "good stuff,0,3,1,0,0,0,0\nbroken,0,x,0,0,0,0,0\n"
            "bad stuff,0,0,0,0,2,2,0\n",
            encoding="utf-8",
        )
        with caplog.at_level(logging.WARNING, logger="reaction_lens.corpus_io"):
            assert main([
                "train", "--input", str(corpus), "--output", str(tmp_path / "s.lex"),
                "--model", "star",
            ]) == EXIT_OK
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert warnings[0].startswith("skipping malformed row at line 3")
        assert "1 malformed" in capsys.readouterr().out

    def test_star_lexicon_matches_oracles(self, synth_corpus, tmp_path):
        lexicon_path = tmp_path / "star.lex"
        assert main([
            "train", "--input", str(synth_corpus), "--output", str(lexicon_path),
            "--model", "star",
        ]) == EXIT_OK
        records = [
            (message, Counts(*counts)) for message, counts, _ in corpus_rows(synth_corpus)
        ]
        records = [(m, c) for m, c in records if c.love + c.wow + c.sad + c.angry > 0]
        stars, _, _ = oracle_star_vectors([counts for _, counts in records])
        entries = [
            (set(message.split()), (positive, negative, oracle_nearest_half(star), star))
            for (message, _), (positive, negative, _, star) in zip(records, stars)
        ]
        lexicon = load_lexicon(lexicon_path)
        table = oracle_lexicon(entries, 4)
        assert set(lexicon.entries) == set(table)
        for word, expected in table.items():
            assert lexicon.entries[word][0] == pytest.approx(expected, abs=1e-12)
        assert lexicon.train_mean == pytest.approx(oracle_train_mean(entries, 4), abs=1e-12)

    def test_star_degenerate_exit(self, tmp_path):
        corpus = tmp_path / "c.csv"
        corpus.write_text(HEADER + "a,0,1,0,0,0,0,0\nb,0,1,0,0,0,0,0\n", encoding="utf-8")
        assert main([
            "train", "--input", str(corpus), "--output", str(tmp_path / "s.lex"),
            "--model", "star",
        ]) == EXIT_DATA


@pytest.fixture
def shared_offset(monkeypatch):
    """Call with a path: every later ``open`` of it gets a dup of one descriptor, so all of
    them share one file offset, as opening ``/dev/stdin`` does on macOS and the BSDs when
    stdin is redirected from that path."""
    real_open, fds = builtins.open, []

    def share(path):
        fd = os.open(path, os.O_RDONLY)
        fds.append(fd)
        monkeypatch.setattr(builtins, "open", lambda file, *args, **kwargs: real_open(
            os.dup(fd) if file == str(path) else file, *args, **kwargs))

    yield share
    for fd in fds:
        os.close(fd)


class TestSharedInputOffset:
    """The input checksum of a manifest reads the input without moving its file offset."""

    def test_clean_reads_every_row(self, tmp_path, shared_offset):
        corpus, out = tmp_path / "c.csv", tmp_path / "o.csv"
        corpus.write_text(HEADER + "".join(f"w{i} x,1,0,0,0,0,0,0\n" for i in range(50)),
                          encoding="utf-8")
        shared_offset(corpus)
        assert main(["clean", "--input", str(corpus), "--output", str(out)]) == EXIT_OK
        assert len(out.read_text(encoding="utf-8").splitlines()) == 1 + 50
        manifest = json.loads((tmp_path / "o.csv.manifest.json").read_text())
        assert manifest["row_drops"]["rows_out"] == 50
        assert manifest["inputs"][0]["sha256"] == hashlib.sha256(corpus.read_bytes()).hexdigest()

    def test_predict_scores_every_message(self, tmp_path, shared_offset):
        corpus, lexicon = tmp_path / "c.csv", tmp_path / "core.lex"
        write_two_entry_corpus(corpus)
        assert main(["train", "--input", str(corpus), "--output", str(lexicon)]) == EXIT_OK
        messages, out = tmp_path / "m.txt", tmp_path / "p.txt"
        messages.write_text("a c\nzz\n" * 5, encoding="utf-8")
        shared_offset(messages)
        assert main(["predict", "--lexicon", str(lexicon), "--input", str(messages),
                     "--output", str(out)]) == EXIT_OK
        assert len(out.read_text(encoding="utf-8").splitlines()) == 10
        manifest = json.loads((tmp_path / "p.txt.manifest.json").read_text())
        assert manifest["row_drops"]["messages"] == 10
        assert manifest["inputs"][1]["sha256"] == hashlib.sha256(messages.read_bytes()).hexdigest()


def resign(text, body):
    """``text``'s headers over ``body``, with the checksum of ``body``."""
    head = text[:text.index("#sha256\t")]
    return head + f"#sha256\t{hashlib.sha256(body.encode('utf-8')).hexdigest()}\n" + body


@pytest.fixture(scope="module")
def small_chunk_inputs(tmp_path_factory):
    """An all lexicon of a 60-word synth vocabulary, and its entry lines."""
    root = tmp_path_factory.mktemp("small-chunk")
    corpus, lexicon = root / "c.csv", root / "all.lex"
    assert main(["synth", "--output", str(corpus), "--rows", "400", "--vocab-size", "60",
                 "--seed", "13"]) == EXIT_OK
    assert main(["train", "--input", str(corpus), "--output", str(lexicon), "--model", "all"]) \
        == EXIT_OK
    text = lexicon.read_text(encoding="utf-8")
    body = text[text.index("\n", text.index("#sha256\t")) + 1:]
    return {"lexicon": lexicon, "text": text, "body": body}


class TestSmallChunkParse:
    """An input too short to split parses only its words' lexicon lines; the lexicon's
    checks, the predictions and the manifest counts are those of a full load."""

    @pytest.mark.parametrize("stdin", [False, True])
    def test_bad_decimal_on_an_unused_word_exits_4(self, small_chunk_inputs, tmp_path, stdin):
        text, body = small_chunk_inputs["text"], small_chunk_inputs["body"]
        lines = body.split("\n")
        fields = lines[-2].split("\t")  # the last word's line; the message does not use it
        fields[3] = "0.5x"
        lines[-2] = "\t".join(fields)
        lexicon = tmp_path / "bad.lex"
        lexicon.write_text(resign(text, "\n".join(lines)), encoding="utf-8")
        with pytest.raises(CorruptArtifact) as expected:
            oracle_load_entries("\n".join(lines), load_lexicon(small_chunk_inputs["lexicon"]).schema)
        message, out = lines[0].split("\t")[0] + "\n", tmp_path / "p.txt"
        argv = ["--lexicon", str(lexicon), "--output", str(out)]
        if stdin:
            result = run_predict(argv, input=message.encode("utf-8"))
        else:
            (tmp_path / "m.txt").write_text(message, encoding="utf-8")
            result = run_predict([*argv, "--input", str(tmp_path / "m.txt")])
        assert (result.returncode, result.stderr.decode("utf-8")) == (
            EXIT_SCHEMA, f"reaction-lens: schema error: {expected.value}\n")
        assert not out.exists()
        assert not list(tmp_path.glob("p.txt*"))

    def test_has_lines_counts_the_newlines_of_a_regular_file_only(self, tmp_path):
        import threading

        from reaction_lens.cli import _MIN_SPLIT, _has_lines

        short, full, unended = tmp_path / "short.txt", tmp_path / "full.txt", tmp_path / "u.txt"
        short.write_bytes(b"w\n" * (_MIN_SPLIT - 1))
        full.write_bytes(b"w\n" * _MIN_SPLIT)
        unended.write_bytes(b"w\n" * (_MIN_SPLIT - 1) + b"w")  # counted by its newlines
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        answers = {}
        # A pipe is never opened here: opening one would wait for a writer.
        probe = threading.Thread(target=lambda: answers.update(fifo=_has_lines(fifo, 1)),
                                 daemon=True)
        probe.start()
        probe.join(10)
        assert not probe.is_alive()
        assert answers == {"fifo": False}
        assert [_has_lines(path, _MIN_SPLIT) for path in (short, full, unended)] == [
            False, True, False]
        assert not _has_lines(tmp_path, 1)  # a directory
        assert not _has_lines(tmp_path / "missing.txt", 1)

    @pytest.mark.parametrize("stdin, lines, calls_made", [
        (False, 2047, ["open"]), (False, 2048, ["load"]),
        (True, 256, ["open"]), (True, 257, ["open", "parse_all"]),
    ])
    def test_which_lexicon_path_an_input_takes(self, small_chunk_inputs, tmp_path, monkeypatch,
                                               capsys, stdin, lines, calls_made):
        # A file of _MIN_SPLIT lines or more loads the whole lexicon; a shorter input opens a
        # LexiconFile, and after _PARTIAL_CHUNKS chunks (lines, on stdin) parses every line.
        from reaction_lens import cli

        assert (cli._MIN_SPLIT, cli._PARTIAL_CHUNKS) == (2048, 256)
        calls = []

        class Recorded(cli.LexiconFile):
            def __init__(self, source):
                calls.append("open")
                super().__init__(source)

            def parse_all(self):
                calls.append("parse_all")
                super().parse_all()

        def load(source):
            calls.append("load")
            return load_lexicon(source)

        monkeypatch.setattr(cli, "LexiconFile", Recorded)
        monkeypatch.setattr(cli, "load_lexicon", load)
        messages = "".join(f"w{i}\n" for i in range(lines)).encode("utf-8")
        argv = ["predict", "--lexicon", str(small_chunk_inputs["lexicon"]), "--output", "-"]
        if stdin:
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(messages)))
        else:
            (tmp_path / "m.txt").write_bytes(messages)
            argv += ["--input", str(tmp_path / "m.txt")]
        assert main(argv) == EXIT_OK
        assert calls == calls_made
        assert len(capsys.readouterr().out.splitlines()) == lines

    # "dev-stdin" is --input /dev/stdin with stdin redirected from a file: counting the file's
    # newlines first must not use up any of it, also where the open shares stdin's offset.
    @pytest.mark.parametrize("lines, how", [(1, "file"), (100, "pipe"), (300, "pipe"),
                                            (100, "file"), (2048, "file"), (100, "dev-stdin"),
                                            (2048, "dev-stdin")])
    def test_predictions_match_a_full_load(self, small_chunk_inputs, tmp_path, lines, how):
        from reaction_lens.cleaning import CleanConfig, clean_message
        from reaction_lens.cli import _MIN_SPLIT, _PARTIAL_CHUNKS
        from reaction_lens.engine import predict

        assert (lines >= _MIN_SPLIT) == (lines == 2048)
        assert (lines > _PARTIAL_CHUNKS) == (lines in (300, 2048))
        vocab = sorted(load_lexicon(small_chunk_inputs["lexicon"]).entries)
        # Known words, known and unknown ones, unknown ones only, and an empty line; the
        # known words recur, as a later chunk meets words an earlier one parsed.
        def message(i):
            known = [vocab[i * 7 % len(vocab)], vocab[i * 3 % len(vocab)]]
            return " ".join((known, known[:1] + [f"zz{i}"], ["zz", "qq"], [])[i % 4])

        messages = "".join(message(i) + "\n" for i in range(lines))
        out = tmp_path / "p.txt"
        argv = ["--lexicon", str(small_chunk_inputs["lexicon"]), "--output", str(out)]
        (tmp_path / "m.txt").write_text(messages, encoding="utf-8")
        if how == "pipe":
            result = run_predict(argv, input=messages.encode("utf-8"))
        elif how == "file":
            result = run_predict([*argv, "--input", str(tmp_path / "m.txt")])
        else:
            with open(tmp_path / "m.txt", "rb") as stdin:
                result = run_predict([*argv, "--input", "/dev/stdin"], stdin=stdin)
        assert result.returncode == EXIT_OK, result.stderr

        lexicon, config = load_lexicon(small_chunk_inputs["lexicon"]), CleanConfig()
        expected, coverage_sum = [], 0.0
        for message in messages.splitlines():
            vector, coverage = predict(clean_message(message, config), lexicon)
            expected.append(",".join("%.17g" % v for v in vector) + " coverage=%.17g\n" % coverage)
            coverage_sum += coverage
        coverages = [float(line.rsplit("=", 1)[1]) for line in expected]
        assert out.read_text(encoding="utf-8") == "".join(expected)
        manifest = json.loads((tmp_path / "p.txt.manifest.json").read_text())
        assert manifest["row_drops"] == {
            "messages": lines,
            "mean_coverage": coverage_sum / lines,
            "zero_coverage_share": coverages.count(0.0) / lines,
        }
        assert lines == 1 or 0 < coverages.count(0.0) < lines


class TestEvalCommand:
    def test_json_report(self, synth_corpus, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        assert main([
            "eval", "--input", str(synth_corpus), "--output", str(report_path),
            "--model", "core", "--splits", "80,50", "--runs", "2", "--seed", "3",
        ]) == EXIT_OK
        payload = json.loads(report_path.read_text(encoding="utf-8"))
        assert payload["model"] == "core"
        assert payload["split_labels"] == ["80", "50"]
        assert payload["runs"] == 2
        manifest = json.loads((tmp_path / "report.json.manifest.json").read_text())
        assert payload["manifest"] == manifest["run_id"]

    def test_manifest_accounts_for_entries_and_runs(self, tmp_path, capsys):
        corpus = tmp_path / "c.csv"
        corpus.write_text(
            HEADER + "a b,0,1,0,0,0,0,0\nb c,0,0,1,0,0,0,0\nc d,0,1,1,0,0,0,0\n"
            "d e,0,0,0,1,0,0,0\nlikes only,5,0,0,0,0,0,0\nbroken,x,0,0,0,0,0,0\n",
            encoding="utf-8",
        )
        report_path = tmp_path / "r.json"
        assert main([
            "eval", "--input", str(corpus), "--output", str(report_path),
            "--model", "core", "--splits", "50", "--runs", "2", "--seed", "1",
        ]) == EXIT_OK
        assert "(4 entries used, 1 excluded for a zero total, 1 malformed rows skipped)" in (
            capsys.readouterr().out
        )
        drops = json.loads((tmp_path / "r.json.manifest.json").read_text())["row_drops"]
        assert drops["malformed_rows"] == 1
        assert drops["entries_used"] == 4
        assert drops["entries_excluded_zero_total"] == 1
        assert [(r["split"], r["run"], r["n_train"], r["n_test"]) for r in drops["runs"]] == [
            ("50", 0, 2, 2), ("50", 1, 2, 2),
        ]
        for record in drops["runs"]:
            assert 2 <= record["vocab_size"] <= 4
            assert 0.0 <= record["test_oov_rate"] <= 1.0

    def test_eval_does_not_load_numpy(self, synth_corpus, tmp_path):
        code = (
            "import sys\n"
            "from reaction_lens import cli\n"
            f"assert cli.main(['eval', '--input', {str(synth_corpus)!r}, '--output', "
            f"{str(tmp_path / 'r.json')!r}, '--splits', '80', '--runs', '1']) == 0\n"
            "assert 'numpy' not in sys.modules, 'numpy loaded by eval'\n"
        )
        result = run_python("-c", code)
        assert result.returncode == 0, result.stderr

    def test_csv_report_shape(self, synth_corpus, tmp_path):
        report_path = tmp_path / "report.csv"
        assert main([
            "eval", "--input", str(synth_corpus), "--output", str(report_path),
            "--model", "star", "--splits", "50", "--runs", "1",
            "--report-format", "csv",
        ]) == EXIT_OK
        lines = report_path.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "model,split_percent,reaction,metric,value,runs,seed"
        assert len(lines) == 1 + 3 * 4  # 3 star rows x 4 metrics

    def test_degenerate_corpus_exit(self, tmp_path):
        corpus = tmp_path / "tiny.csv"
        write_two_entry_corpus(corpus)
        assert main([
            "eval", "--input", str(corpus), "--output", str(tmp_path / "r.json"),
            "--model", "core", "--splits", "95", "--runs", "1",
        ]) == EXIT_DATA

    def test_star_flat_range_exit(self, tmp_path):
        corpus = tmp_path / "flat.csv"
        corpus.write_text(HEADER + "".join(f"m{i},0,1,0,0,0,0,0\n" for i in range(10)),
                          encoding="utf-8")
        assert main([
            "eval", "--input", str(corpus), "--output", str(tmp_path / "r.json"),
            "--model", "star", "--splits", "90,50", "--runs", "2",
        ]) == EXIT_DATA

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_non_finite_sigma_is_a_usage_error(self, synth_corpus, tmp_path, capsys, sigma):
        report_path = tmp_path / "r.json"
        assert main([
            "eval", "--input", str(synth_corpus), "--output", str(report_path),
            "--model", "star", "--splits", "50", "--runs", "1", "--sigma", sigma,
        ]) == EXIT_USAGE
        assert "sigma must be positive and finite" in capsys.readouterr().err
        assert not report_path.exists()
        assert not (tmp_path / "r.json.manifest.json").exists()


class TestConfigFile:
    def test_config_defaults_and_flag_override(self, tmp_path, monkeypatch):
        config = tmp_path / "lens.conf"
        config.write_text("rows = 120\nseed = 6\nvocab-size = 30\n", encoding="utf-8")
        monkeypatch.setenv("REACTION_LENS_CONFIG", str(config))
        a = tmp_path / "a.csv"
        assert main(["synth", "--output", str(a)]) == EXIT_OK
        assert sum(1 for _ in open(a)) == 121  # header + configured rows

        b = tmp_path / "b.csv"
        assert main(["synth", "--output", str(b), "--rows", "40"]) == EXIT_OK
        assert sum(1 for _ in open(b)) == 41  # flag wins over config

    def test_explicit_config_flag(self, tmp_path):
        config = tmp_path / "c.conf"
        config.write_text("# comment\nrows = 15\n", encoding="utf-8")
        out = tmp_path / "o.csv"
        assert main(["--config", str(config), "synth", "--output", str(out)]) == EXIT_OK
        assert sum(1 for _ in open(out)) == 16

    def test_byte_order_mark_dropped(self, tmp_path):
        config = tmp_path / "bom.conf"
        config.write_bytes(b"\xef\xbb\xbfrows = 15\n")
        out = tmp_path / "o.csv"
        assert main(["--config", str(config), "synth", "--output", str(out)]) == EXIT_OK
        assert sum(1 for _ in open(out)) == 16

    def test_usage_error_exit(self):
        with pytest.raises(SystemExit) as info:
            main(["synth"])  # missing required --output
        assert info.value.code == 2

    @pytest.mark.parametrize("line, command, key, value", [
        ("casefold-ascii = yes", "clean", "casefold_ascii", True),
        ("sigma = 0.5", "eval", "sigma", 0.5),
        ("model = star", "train", "model", "star"),
        ("splits = 90,50", "eval", "splits", [0.9, 0.5]),
        ("columns = message=text", "stats", "columns", {"message": "text"}),
    ])
    def test_each_kind_of_value(self, tmp_path, line, command, key, value):
        header = HEADER.replace("message", "text") if key == "columns" else HEADER
        corpus = tmp_path / "corpus.csv"
        corpus.write_text(header + "".join(
            f"w{i % 5} w{i % 3},1,{i % 4},{i % 2},0,{(i + 1) % 3},0,0\n" for i in range(20)
        ), encoding="utf-8")
        config = tmp_path / "lens.conf"
        config.write_text(line + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["--config", str(config), command, "--input", str(corpus),
                     "--output", str(out)]) == EXIT_OK
        assert json.loads((tmp_path / "out.manifest.json").read_text())["config"][key] == value

    def test_bad_value_is_a_usage_error(self, synth_corpus, tmp_path, capsys):
        config = tmp_path / "lens.conf"
        config.write_text("runs = x\n", encoding="utf-8")
        report = tmp_path / "r.json"
        assert main(["--config", str(config), "eval", "--input", str(synth_corpus),
                     "--output", str(report)]) == EXIT_USAGE
        assert "invalid arguments" in capsys.readouterr().err
        assert not report.exists()
        assert not (tmp_path / "r.json.manifest.json").exists()

    def test_value_outside_the_flags_choices_exits_before_any_input_is_read(self, tmp_path, capsys):
        # One entry leaves an empty side (exit 5) once the corpus is read.
        corpus = tmp_path / "one.csv"
        corpus.write_text(HEADER + "a,0,1,0,0,0,0,0\n", encoding="utf-8")
        config = tmp_path / "lens.conf"
        config.write_text("report-format = xml\n", encoding="utf-8")
        assert main(["--config", str(config), "eval", "--input", str(corpus),
                     "--output", str(tmp_path / "r.json"), "--splits", "50", "--runs", "1"],
                    ) == EXIT_USAGE
        assert "report-format: invalid choice 'xml'" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["lens.conf", "one.csv"]

    def test_predict_folds_case_from_the_flag_or_the_config(self, tmp_path, capsys):
        raw, cleaned, lexicon = tmp_path / "raw.csv", tmp_path / "c.csv", tmp_path / "c.lex"
        raw.write_text(HEADER + "W0001 w0002,0,1,0,0,0,0,0\nw0002 W0003,0,0,1,0,0,0,0\n",
                       encoding="utf-8")
        assert main(["clean", "--input", str(raw), "--output", str(cleaned),
                     "--casefold-ascii"]) == EXIT_OK
        assert main(["train", "--input", str(cleaned), "--output", str(lexicon)]) == EXIT_OK
        messages = tmp_path / "m.txt"
        messages.write_text("W0001\n", encoding="utf-8")
        config = tmp_path / "lens.conf"
        config.write_text("casefold-ascii = yes\n", encoding="utf-8")
        predict = ["predict", "--lexicon", str(lexicon), "--input", str(messages)]
        capsys.readouterr()
        assert main([*predict, "--casefold-ascii"]) == EXIT_OK
        from_flag = capsys.readouterr().out
        assert main(["--config", str(config), *predict]) == EXIT_OK
        from_config = capsys.readouterr().out
        assert main(predict) == EXIT_OK
        unfolded = capsys.readouterr().out
        assert from_flag == from_config == "1,0,0,0,0 coverage=1\n"
        assert unfolded.endswith(" coverage=0\n")


# Run in a fresh interpreter: the command's argv follows the code, and the
# exit code and every loaded module name go to stderr's last line.
REPORT_MODULES = (
    "import sys\n"
    "from reaction_lens import cli\n"
    "code = cli.main(sys.argv[1:])\n"
    "print(code, *sorted(sys.modules), file=sys.stderr)\n"
)
TIMESTAMP = re.compile(r"^\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00$")
# command -> (modules it must load, modules it must not load); no command
# but synth loads dataclasses, which brings inspect, ast, dis and tokenize.
UNUSED_EVERYWHERE = {"logging", "datetime", "dataclasses", "inspect"}
# predict reads a lexicon and messages, never a corpus: no corpus reader, no csv.
LOADS = {
    "predict": ({"reaction_lens.artifacts", "reaction_lens.cleaning"},
                {"reaction_lens.corpus_io", "csv", "reaction_lens.evaluation",
                 "reaction_lens.star", *UNUSED_EVERYWHERE}),
    "clean": ({"reaction_lens.cleaning", "reaction_lens.corpus_io"},
              {"reaction_lens.evaluation", "reaction_lens.star", *UNUSED_EVERYWHERE}),
    "train": ({"reaction_lens.evaluation"}, {"reaction_lens.cleaning", *UNUSED_EVERYWHERE}),
    "eval": ({"reaction_lens.evaluation"}, {"reaction_lens.cleaning", *UNUSED_EVERYWHERE}),
    "stats": ({"reaction_lens.corpus_io"}, {"reaction_lens.cleaning", *UNUSED_EVERYWHERE}),
}


# command -> (flags beside its paths, manifest config keys, row_drops keys or None)
MANIFEST_KEYS = {
    "clean": ([], ["input", "output", "format", "stopwords", "casefold_ascii", "columns"], [
        "rows_read", "malformed_rows", "empty_after_cleaning", "rows_out",
        "kept_with_zero_core_total", "kept_with_zero_polar_total", "token_removals",
    ]),
    "eval": (["--splits", "80", "--runs", "1"], [
        "input", "output", "model", "format", "columns", "splits", "runs", "seed", "sigma",
        "report_format",
    ], ["malformed_rows", "entries_used", "entries_excluded_zero_total", "runs"]),
    "predict": ([], ["lexicon", "input", "output", "stopwords", "casefold_ascii"],
                ["messages", "mean_coverage", "zero_coverage_share"]),
    "stats": ([], ["input", "output", "format", "columns"], ["malformed_rows"]),
    "train": ([], ["input", "output", "model", "format", "columns"],
              ["malformed_rows", "entries_used", "entries_excluded_zero_total"]),
    "synth": (["--rows", "20", "--vocab-size", "10"], [
        "output", "format", "rows", "vocab_size", "affinity_concentration", "fixed_affinity",
        "length_min", "length_max", "reaction_scale", "like_dominance", "like_variability",
        "thankful_rate", "seed",
    ], None),
}


class TestStartup:
    """Each command loads only the modules it runs."""

    @pytest.fixture
    def argvs(self, synth_corpus, tmp_path):
        lexicon = tmp_path / "core.lex"
        assert main(["train", "--input", str(synth_corpus), "--output", str(lexicon)]) == EXIT_OK
        messages = tmp_path / "m.txt"
        messages.write_text("w0001 w0002\nw0003\n", encoding="utf-8")
        corpus = str(synth_corpus)
        return {
            "predict": ["predict", "--lexicon", str(lexicon), "--input", str(messages),
                        "--output", str(tmp_path / "p.txt")],
            "clean": ["clean", "--input", corpus, "--output", str(tmp_path / "c.csv")],
            "train": ["train", "--input", corpus, "--output", str(tmp_path / "t.lex")],
            "eval": ["eval", "--input", corpus, "--output", str(tmp_path / "r.json"),
                     "--splits", "80", "--runs", "1"],
            "stats": ["stats", "--input", corpus, "--output", str(tmp_path / "s.json")],
        }

    @pytest.mark.parametrize("command", sorted(LOADS))
    def test_command_loads_only_what_it_runs(self, argvs, command):
        result = run_python("-c", REPORT_MODULES, *argvs[command])
        code, *modules = result.stderr.splitlines()[-1].split()
        assert code == "0", result.stderr
        used, unused = LOADS[command]
        assert used <= set(modules)
        assert unused & set(modules) == set()

    def test_package_import_loads_no_submodule(self):
        result = run_python("-c", "import sys, reaction_lens\nprint(*sorted(sys.modules))")
        assert result.returncode == 0, result.stderr
        assert [m for m in result.stdout.split() if m.startswith("reaction_lens.")] == []

    def test_clean_logs_five_malformed_rows_and_a_count(self, tmp_path):
        raw = tmp_path / "raw.csv"
        raw.write_text(
            HEADER + "ok,1,1,0,0,0,0,0\n" + "".join(f"bad{i},x,0,0,0,0,0,0\n" for i in range(7)),
            encoding="utf-8",
        )
        result = run_python("-m", "reaction_lens.cli", "clean", "--input", str(raw),
                            "--output", str(tmp_path / "c.csv"))
        assert result.returncode == 0, result.stderr
        assert result.stderr.splitlines() == [
            f"skipping malformed row at line {line}: column 'like': 'x' is not an integer"
            for line in range(3, 8)
        ] + ["2 more malformed rows not shown"]
        assert "(7 malformed, 0 empty after cleaning)" in result.stdout

    @pytest.mark.parametrize("command", sorted(MANIFEST_KEYS))
    def test_manifest_key_order(self, synth_corpus, tmp_path, command):
        flags, config_keys, drop_keys = MANIFEST_KEYS[command]
        if command == "predict":
            lexicon = tmp_path / "core.lex"
            assert main(["train", "--input", str(synth_corpus), "--output", str(lexicon)]) == EXIT_OK
            messages = tmp_path / "m.txt"
            messages.write_text("w0001 w0002\nw0003\n", encoding="utf-8")
            flags = ["--lexicon", str(lexicon), "--input", str(messages)]
        elif command != "synth":
            flags = ["--input", str(synth_corpus), *flags]
        out = tmp_path / "out"
        assert main([command, *flags, "--output", str(out)]) == EXIT_OK
        manifest = json.loads((tmp_path / "out.manifest.json").read_text())
        assert list(manifest) == ["run_id", "tool", "command", "created_at", "finished_at",
                                  "config", "inputs", "outputs", "row_drops"]
        for described in manifest["inputs"]:
            assert list(described) == ["path", "sha256", "bytes"]
        assert list(manifest["config"]) == config_keys
        drops = manifest["row_drops"]
        assert (drops if drop_keys is None else list(drops)) == drop_keys
        if command == "clean":
            assert list(drops["token_removals"]) == [
                "zwj_deleted", "controls_replaced", "url_tokens", "email_tokens", "tag_tokens",
                "hashtag_tokens", "foreign_tokens", "stopword_tokens", "digit_tokens",
            ]
        if command == "eval":
            assert list(drops["runs"][0]) == [
                "split", "run", "n_train", "n_test", "vocab_size", "test_oov_rate",
            ]

    def test_manifest_timestamps_are_utc_seconds(self, synth_corpus, tmp_path):
        out = tmp_path / "c.csv"
        assert main(["clean", "--input", str(synth_corpus), "--output", str(out)]) == EXIT_OK
        manifest = json.loads((tmp_path / "c.csv.manifest.json").read_text())
        assert TIMESTAMP.match(manifest["created_at"]), manifest["created_at"]
        assert TIMESTAMP.match(manifest["finished_at"]), manifest["finished_at"]


def noisy_corpus(path, good_rows):
    """A CSV of ``good_rows`` rows with a non-integer, a short and an invalid
    UTF-8 row after every 50th, and one quoted field left open at the end."""
    lines = [HEADER.encode("utf-8")]
    for i in range(good_rows):
        lines.append(f"w{i % 97:04d} w{i * 7 % 89:04d} x{i % 13},{i % 5},1,{i % 3},0,{i % 2},0,0\n"
                     .encode("utf-8"))
        if i % 50 == 0:
            lines += [b"nonint,x,0,0,0,0,0,0\n", b"short,1,2\n", b"\xff\xfe bad,1,0,0,0,0,0,0\n"]
    lines.append(b'"open,1,1,1,1,1,1,0\n')
    path.write_bytes(b"".join(lines))


class TestCollectorPaused:
    """``main`` runs with the cyclic collector off, which is safe only while no
    command leaves cyclic garbage that grows with its input."""

    COMMANDS = {
        "clean": lambda n: ["clean", "--input", f"c{n}.csv", "--output", f"o{n}.csv"],
        "stats": lambda n: ["stats", "--input", f"c{n}.csv", "--output", f"s{n}.json"],
        "train core": lambda n: ["train", "--input", f"c{n}.csv", "--output", f"t{n}.lex"],
        "train star": lambda n: ["train", "--input", f"c{n}.csv", "--output", f"t{n}.lex",
                                 "--model", "star"],
        "eval core": lambda n: ["eval", "--input", f"c{n}.csv", "--output", f"e{n}.json",
                                "--splits", "90,50", "--runs", "2"],
        "eval star": lambda n: ["eval", "--input", f"c{n}.csv", "--output", f"e{n}.json",
                                "--splits", "90,50", "--runs", "2", "--model", "star"],
        "predict": lambda n: ["predict", "--lexicon", "l.lex", "--input", f"m{n}.txt",
                              "--output", f"p{n}.txt"],
        "synth": lambda n: ["synth", "--output", f"y{n}.csv", "--rows", str(n)],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_garbage_does_not_grow_with_the_input(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.chdir(tmp_path)
        for n in (200, 2000):
            noisy_corpus(tmp_path / f"c{n}.csv", n)
            (tmp_path / f"m{n}.txt").write_text(
                "".join(f"w{i % 97:04d} zz{i} w{i * 3 % 89:04d}\n" for i in range(n)),
                encoding="utf-8")
        assert main(["train", "--input", "c200.csv", "--output", "l.lex"]) == EXIT_OK

        def garbage(n):
            gc.collect()
            assert main(self.COMMANDS[command](n)) == EXIT_OK
            return gc.collect()

        garbage(200)  # first imports and one-time set-up
        small, large = garbage(200), garbage(2000)
        assert small == large
        assert large < 100  # main frees the parser's 393 objects before the command runs
        if command == "clean":
            drops = json.loads((tmp_path / "o2000.csv.manifest.json").read_text())["row_drops"]
            assert drops["malformed_rows"] == 3 * 40 + 1

    def test_command_runs_with_the_collector_off(self, monkeypatch):
        from reaction_lens import cli

        seen = []
        monkeypatch.setitem(cli._COMMANDS, "stats", lambda args: seen.append(gc.isenabled()))
        assert gc.isenabled()
        main(["stats", "--input", "unread.csv"])
        assert seen == [False]
        assert gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_main_restores_the_collector_state(self, tmp_path, capsys, enabled):
        bad_lexicon = tmp_path / "bad.lex"
        bad_lexicon.write_text("#reaction-lexicon v9\n", encoding="utf-8")
        runs = [
            (["synth", "--output", str(tmp_path / "s.csv"), "--rows", "10"], EXIT_OK),
            (["eval", "--input", "x", "--output", "y", "--sigma", "nan"], EXIT_USAGE),
            (["stats", "--input", str(tmp_path / "missing.csv")], EXIT_IO),
            (["predict", "--lexicon", str(bad_lexicon), "--input", str(bad_lexicon)], EXIT_SCHEMA),
            (["synth", "--output", str(tmp_path / "x.csv"), "--rows", "0"], EXIT_DATA),
        ]
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            for argv, code in runs:
                assert main(argv) == code
                assert gc.isenabled() is enabled
            with pytest.raises(SystemExit):  # argparse's own usage error
                main(["train"])
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert gc.get_freeze_count() == 0

    def test_entry_freezes_the_heap_and_exits_with_mains_code(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["reaction-lens", "synth", "--output",
                                          str(tmp_path / "s.csv"), "--rows", "0"])
        try:
            with pytest.raises(SystemExit) as exit_info:
                entry()
            assert exit_info.value.code == EXIT_DATA
            assert gc.get_freeze_count() > 0
        finally:
            gc.unfreeze()


def test_interrupt_prints_one_line_and_dies_by_sigint():
    # Ctrl-C during a command: one line on stderr, no traceback, and the
    # process ends by SIGINT itself, so a shell loop around it stops too.
    script = (
        "from reaction_lens import cli\n"
        "def interrupted(argv=None):\n"
        "    raise KeyboardInterrupt\n"
        "cli.main = interrupted\n"
        "cli.entry()\n"
    )
    result = run_python("-c", script)
    assert result.returncode == -signal.SIGINT
    assert result.stderr.splitlines() == ["reaction-lens: interrupted"]


# The package run through cli.entry, with each fork's child pid appended to the file $FORKS.
TRACK_FORKS = (
    "import os\n"
    "from reaction_lens import cli\n"
    "fork = os.fork\n"
    "def tracked():\n"
    "    pid = fork()\n"
    "    if pid:\n"
    "        with open(os.environ['FORKS'], 'a') as fh:\n"
    "            fh.write(f'{pid}\\n')\n"
    "    return pid\n"
    "os.fork = tracked\n"
    "cli.entry()\n"
)
SPLIT_WORDS = ["ආයුබෝවන්", "ලංකාව", "සුභ", "දවසක්", "w0001", "w0002", "w0003", "w0004"]
can_pin = hasattr(os, "sched_setaffinity") and len(os.sched_getaffinity(0)) >= 2
needs_two_cpus = pytest.mark.skipif(not can_pin, reason="needs two CPUs and sched_setaffinity")


def pin_to_one_cpu():
    """Pin this process to the first CPU it may run on, which need not be CPU 0."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def split_message(i):
    """Message ``i`` of the split tests: Sinhala and ASCII words, an empty line,
    a lone CR, unknown words only, and the stopword ``stopw``."""
    kind = i % 11
    if kind == 0:
        return ""
    if kind == 1:
        return f"zz{i} qq"
    if kind == 2:
        return f"{SPLIT_WORDS[i % 4]}\rw0003 stopw"
    return f"{SPLIT_WORDS[i % 8]} {SPLIT_WORDS[i * 5 % 8]} x{i % 7} stopw"


def run_command(command, argv, one_cpu=False, forks=None, **kwargs):
    """Run ``command`` in a fresh interpreter, pinned to one CPU or not; ``forks`` is
    the file that records the children it forks."""
    src = str(Path(reaction_lens.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src, **({"FORKS": str(forks)} if forks else {})}
    program = ["-c", TRACK_FORKS] if forks else ["-m", "reaction_lens.cli"]
    return subprocess.run(
        [sys.executable, *program, command, *argv], env=env, capture_output=True,
        preexec_fn=pin_to_one_cpu if one_cpu else None, timeout=120,
        **kwargs)


def run_predict(argv, one_cpu=False, forks=None, **kwargs):
    return run_command("predict", argv, one_cpu, forks, **kwargs)


def forked(path):
    """The child pids recorded in ``path``; each must be gone by now."""
    pids = [int(pid) for pid in path.read_text().split()] if path.exists() else []
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
    return pids


@pytest.fixture(scope="module")
def split_inputs(tmp_path_factory):
    """A lexicon, a stopword file, and a message file of a full chunk plus a
    partial one, each large enough to be split."""
    from reaction_lens.cli import _CHUNK, _MIN_SPLIT

    root = tmp_path_factory.mktemp("split")
    corpus = root / "c.csv"
    corpus.write_text(HEADER + "".join(
        f"{SPLIT_WORDS[i % 8]} {SPLIT_WORDS[i * 3 % 8]} x{i % 5},{i % 4},{i % 3},1,0,{i % 2},0,0\n"
        for i in range(40)), encoding="utf-8")
    lexicon = root / "l.lex"
    assert main(["train", "--input", str(corpus), "--output", str(lexicon), "--model", "all"]) \
        == EXIT_OK
    stop = root / "stop.txt"
    stop.write_text("stopw\n", encoding="utf-8")
    lines = _CHUNK + _MIN_SPLIT + 1000
    messages = root / "m.txt"
    messages.write_bytes("".join(split_message(i) + "\n" for i in range(lines)).encode("utf-8"))
    return {"lexicon": lexicon, "stop": stop, "messages": messages, "lines": lines}


def predict_argv(inputs, *flags):
    return ["--lexicon", str(inputs["lexicon"]), "--stopwords", str(inputs["stop"]), *flags]


@needs_two_cpus
class TestSplitPredict:
    """A large chunk of a message file is scored in two processes, and the
    bytes, manifest counts, errors and exit codes are those of one process."""

    def test_file_output_and_manifest_match_one_cpu(self, split_inputs, tmp_path):
        outputs = []
        for one_cpu in (False, True):
            out = tmp_path / f"p{int(one_cpu)}.txt"
            forks = tmp_path / f"forks{int(one_cpu)}"
            flags = predict_argv(split_inputs, "--input", str(split_inputs["messages"]),
                                 "--output", str(out))
            result = run_predict(flags, one_cpu, forks)
            assert result.returncode == EXIT_OK, result.stderr
            assert result.stderr == b""
            manifest = json.loads((tmp_path / f"{out.name}.manifest.json").read_text())
            outputs.append((out.read_bytes(), manifest["row_drops"], len(forked(forks))))
        (split_bytes, split_drops, split_forks), (one_bytes, one_drops, one_forks) = outputs
        assert (split_forks, one_forks) == (2, 0)  # one per chunk: the full one and the rest
        assert split_bytes == one_bytes
        assert split_bytes.count(b"\n") == split_inputs["lines"]
        assert split_drops == one_drops
        assert split_drops["messages"] == split_inputs["lines"]
        assert 0 < split_drops["zero_coverage_share"] < 1

    def test_stdout_matches_one_cpu(self, split_inputs):
        flags = predict_argv(split_inputs, "--input", str(split_inputs["messages"]))
        split, one = (run_predict(flags, one_cpu) for one_cpu in (False, True))
        assert split.returncode == one.returncode == EXIT_OK, split.stderr
        assert split.stdout == one.stdout
        assert split.stdout.count(b"\n") == split_inputs["lines"]

    def test_piped_stdin_is_read_a_line_at_a_time(self, split_inputs, tmp_path):
        # "-" reads a line per chunk, so a pipe is never split; a file given as
        # --input /dev/stdin is a regular file and is split like any other.
        messages = split_inputs["messages"]
        piped = run_predict(predict_argv(split_inputs), forks=tmp_path / "piped",
                            input=messages.read_bytes())
        with open(messages, "rb") as fh:
            redirected = run_predict(predict_argv(split_inputs, "--input", "/dev/stdin"),
                                     forks=tmp_path / "redirected", stdin=fh)
        assert piped.returncode == redirected.returncode == EXIT_OK, piped.stderr
        assert piped.stdout == redirected.stdout
        assert len(forked(tmp_path / "piped")) == 0
        assert len(forked(tmp_path / "redirected")) == 2

    @pytest.mark.parametrize("at", [0.75, 0.25])
    def test_a_failing_half_is_the_one_process_error(self, split_inputs, tmp_path, at):
        # No fallback vector, and one message with no known word: in the child's half (0.75),
        # or in this process's half (0.25) while the child waits to send a full pipe's worth.
        from reaction_lens.artifacts import save_lexicon
        from reaction_lens.cli import _MIN_SPLIT
        from reaction_lens.engine import ReactionLexicon

        known = load_lexicon(split_inputs["lexicon"])
        lexicon = tmp_path / "no-mean.lex"
        save_lexicon(ReactionLexicon(known.schema, known.entries, 0, None), str(lexicon))
        lines = ["w0001 ලංකාව"] * _MIN_SPLIT
        lines[int(_MIN_SPLIT * at)] = "zz qq"
        messages = tmp_path / "m.txt"
        messages.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "p.txt"
        results = []
        for one_cpu in (False, True):
            forks = tmp_path / f"forks{int(one_cpu)}"
            result = run_predict(["--lexicon", str(lexicon), "--input", str(messages),
                                  "--output", str(out)], one_cpu, forks)
            results.append((result.returncode, result.stderr, len(forked(forks))))
        assert results == [
            (EXIT_DATA, b"reaction-lens: degenerate data: lexicon has no training entries"
                        b" and no fallback vector\n", forks)
            for forks in (1, 0)
        ]
        assert not out.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "forks0", "m.txt", "no-mean.lex"]

    def test_interrupt_mid_split_dies_by_sigint(self, split_inputs, tmp_path):
        out, forks = tmp_path / "p.txt", tmp_path / "forks"
        src = str(Path(reaction_lens.__file__).parents[1])
        proc = subprocess.Popen(
            [sys.executable, "-c", TRACK_FORKS, "predict",
             *predict_argv(split_inputs, "--input", str(split_inputs["messages"]),
                           "--output", str(out))],
            env={**os.environ, "PYTHONPATH": src, "FORKS": str(forks)},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True)
        try:
            deadline = time.monotonic() + 120
            while not (forks.exists() and forks.read_text().endswith("\n")):
                assert proc.poll() is None, "predict ended before it forked"
                assert time.monotonic() < deadline, "no fork within 120 s"
                time.sleep(0.005)
            time.sleep(0.02)  # into both halves' scoring
            os.killpg(proc.pid, signal.SIGINT)  # Ctrl-C reaches the whole process group
            _, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode == -signal.SIGINT
        assert err == b"reaction-lens: interrupted\n"
        assert len(forked(forks)) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["forks"]

    @pytest.mark.parametrize("one_cpu", [False, True])
    def test_stdout_closed_after_one_line_exits_io(self, split_inputs, one_cpu):
        # predict ... | head -1
        src = str(Path(reaction_lens.__file__).parents[1])
        proc = subprocess.Popen(
            [sys.executable, "-m", "reaction_lens.cli", "predict",
             *predict_argv(split_inputs, "--input", str(split_inputs["messages"]))],
            env={**os.environ, "PYTHONPATH": src}, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            preexec_fn=pin_to_one_cpu if one_cpu else None)
        try:
            assert proc.stdout.readline().endswith(b"\n")
            proc.stdout.close()
            assert proc.wait(timeout=120) == EXIT_IO
            err = proc.stderr.read()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stderr.close()
        assert err.decode().splitlines() == ["reaction-lens: i/o error: [Errno 32] Broken pipe"]


@needs_two_cpus
@pytest.mark.parametrize("cpus, fork_error", [({0}, AssertionError), ({0, 1}, OSError)])
def test_split_path_falls_back_in_process(split_inputs, tmp_path, monkeypatch, capsys,
                                          cpus, fork_error):
    # One CPU never forks; a fork that fails scores the chunk here.  Either way the bytes
    # are those of a run pinned to one CPU.
    def fork():
        raise fork_error("no fork")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    monkeypatch.setattr(os, "fork", fork)
    out = tmp_path / "p.txt"
    flags = predict_argv(split_inputs, "--input", str(split_inputs["messages"]))
    assert main(["predict", *flags, "--output", str(out)]) == EXIT_OK
    one = run_predict(flags, one_cpu=True)
    assert one.returncode == EXIT_OK, one.stderr
    assert out.read_bytes() == one.stdout


@pytest.fixture(scope="module")
def eval_corpus(tmp_path_factory):
    """A cleaned 6,000-row synth corpus; a run of a star eval of it takes about 30 ms."""
    root = tmp_path_factory.mktemp("split-eval")
    raw, cleaned = root / "raw.csv", root / "cleaned.csv"
    assert main(["synth", "--output", str(raw), "--rows", "6000", "--vocab-size", "900",
                 "--seed", "5"]) == EXIT_OK
    assert main(["clean", "--input", str(raw), "--output", str(cleaned)]) == EXIT_OK
    return cleaned


def eval_argv(corpus, out, model="core", runs=5, *flags):
    return ["--input", str(corpus), "--output", str(out), "--model", model,
            "--splits", "95,90,80,70,50", "--runs", str(runs), "--seed", "3", *flags]


def star_degenerate_in_run_1(path):
    """A star corpus and a seed whose run 0 trains on distinct aggregates and whose
    run 1 does not, at a 50 % split."""
    from reaction_lens.evaluation import ExperimentConfig, run_experiment

    rows = [("a b", "0,1,0,0,0,0,0")] * 7 + [("c d", "0,0,0,0,1,0,0")] * 3
    entries = [(message.split(), tuple(map(int, counts.split(",")))) for message, counts in rows]

    def degenerate(seed):
        try:
            run_experiment(entries, ExperimentConfig("star", (0.5,), runs=1, seed=seed))
        except DegenerateRange:
            return True
        return False

    seed = next(s for s in range(1000) if not degenerate(s) and degenerate(s + 1))
    path.write_text(HEADER + "".join(f"{m},{c}\n" for m, c in rows), encoding="utf-8")
    return seed


@needs_two_cpus
class TestSplitEval:
    """Two or more seeded runs of ``eval`` are run in two processes, and the report
    bytes, manifest counts, errors and exit codes are those of one process."""

    @pytest.mark.parametrize("runs", [2, 5])
    @pytest.mark.parametrize("model", ["core", "all", "star"])
    def test_report_and_manifest_match_one_cpu(self, eval_corpus, tmp_path, model, runs):
        out = tmp_path / "r.json"  # one path for both: the report embeds the run id
        outputs = []
        for one_cpu in (False, True):
            forks = tmp_path / f"forks{int(one_cpu)}"
            result = run_command("eval", eval_argv(eval_corpus, out, model, runs), one_cpu, forks)
            assert result.returncode == EXIT_OK, result.stderr
            assert result.stderr == b""
            manifest = json.loads((tmp_path / "r.json.manifest.json").read_text())
            outputs.append((out.read_bytes(), manifest["row_drops"], len(forked(forks))))
        (split_bytes, split_drops, split_forks), (one_bytes, one_drops, one_forks) = outputs
        assert (split_forks, one_forks) == (1, 0)
        assert split_bytes == one_bytes
        assert split_drops == one_drops
        assert [record["run"] for record in split_drops["runs"]] == list(range(runs)) * 5

    def test_csv_report_matches_one_cpu(self, eval_corpus, tmp_path):
        out = tmp_path / "r.csv"
        argv = eval_argv(eval_corpus, out, "star", 3, "--report-format", "csv")
        reports = []
        for one_cpu in (False, True):
            assert run_command("eval", argv, one_cpu).returncode == EXIT_OK
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    def test_one_run_never_forks(self, eval_corpus, tmp_path):
        forks = tmp_path / "forks"
        result = run_command("eval", eval_argv(eval_corpus, tmp_path / "r.json", "star", 1),
                             forks=forks)
        assert result.returncode == EXIT_OK, result.stderr
        assert forked(forks) == []

    def test_interrupt_after_the_fork_dies_by_sigint(self, eval_corpus, tmp_path):
        out, forks = tmp_path / "r.json", tmp_path / "forks"
        src = str(Path(reaction_lens.__file__).parents[1])
        proc = subprocess.Popen(
            [sys.executable, "-c", TRACK_FORKS, "eval", *eval_argv(eval_corpus, out, "star", 30)],
            env={**os.environ, "PYTHONPATH": src, "FORKS": str(forks)},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True)
        try:
            deadline = time.monotonic() + 120
            while not (forks.exists() and forks.read_text().endswith("\n")):
                assert proc.poll() is None, "eval ended before it forked"
                assert time.monotonic() < deadline, "no fork within 120 s"
                time.sleep(0.005)
            time.sleep(0.05)  # into both processes' runs, about 0.4 s each
            os.killpg(proc.pid, signal.SIGINT)  # Ctrl-C reaches the whole process group
            _, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode == -signal.SIGINT
        assert err == b"reaction-lens: interrupted\n"
        assert len(forked(forks)) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["forks"]  # no report, no *.tmp


@needs_two_cpus
class TestPinnedHalves:
    """The two halves run on disjoint halves of the allowed CPU set, and the command
    gets its own set back."""

    def test_halves_run_on_disjoint_cpus(self):
        from reaction_lens.cli import _halves

        before = os.sched_getaffinity(0)
        first, second = map(set, _halves(lambda part: sorted(os.sched_getaffinity(0)),
                                         list(range(4)), 2))
        assert first and second and not first & second
        assert first | second == before
        assert os.sched_getaffinity(0) == before

    def test_an_error_in_the_parents_half_gives_the_set_back(self):
        from reaction_lens.cli import _halves

        before, during = os.sched_getaffinity(0), []

        def score(part):
            if part[0] == 0:  # this process's half
                during.append(os.sched_getaffinity(0))
                raise ValueError("bad half")
            return part

        with pytest.raises(ValueError, match="bad half"):
            _halves(score, [0, 1, 2, 3], 2)
        assert during[0] < before
        assert os.sched_getaffinity(0) == before

    def test_predict_and_eval_give_the_set_back(self, split_inputs, eval_corpus, tmp_path,
                                                monkeypatch):
        real_pin, pins = os.sched_setaffinity, []

        def pin(pid, cpus):
            pins.append(set(cpus))  # this process's calls: the children's stay theirs
            real_pin(pid, cpus)

        before = os.sched_getaffinity(0)
        lower = set(sorted(before)[:len(before) // 2])
        monkeypatch.setattr(os, "sched_setaffinity", pin)
        flags = predict_argv(split_inputs, "--input", str(split_inputs["messages"]))
        assert main(["predict", *flags, "--output", str(tmp_path / "p.txt")]) == EXIT_OK
        assert pins == [lower, before] * 2  # one split per chunk
        assert os.sched_getaffinity(0) == before
        pins.clear()
        assert main(["eval", *eval_argv(eval_corpus, tmp_path / "r.json", "core", 2)]) == EXIT_OK
        assert pins == [lower, before]
        assert os.sched_getaffinity(0) == before

    def test_a_refused_pin_still_uses_the_childs_half(self, split_inputs, tmp_path,
                                                       monkeypatch):
        from reaction_lens import cli

        flags = predict_argv(split_inputs, "--input", str(split_inputs["messages"]))
        one = run_predict(flags, one_cpu=True)
        assert one.returncode == EXIT_OK, one.stderr

        def refuse(pid, cpus):
            raise OSError("cpuset changed")

        real_halves, scored = cli._halves, []

        def counting(score, items, min_split):
            def counted(part):
                scored.append(len(part))  # this process's calls: the child's stay its own
                return score(part)
            return real_halves(counted, items, min_split)

        before = os.sched_getaffinity(0)
        monkeypatch.setattr(os, "sched_setaffinity", refuse)
        monkeypatch.setattr(cli, "_halves", counting)
        out = tmp_path / "p.txt"
        assert main(["predict", *flags, "--output", str(out)]) == EXIT_OK
        assert scored == [cli._CHUNK // 2, (split_inputs["lines"] - cli._CHUNK) // 2]
        assert out.read_bytes() == one.stdout
        assert os.sched_getaffinity(0) == before


def forcing_two_cpus(monkeypatch, fork=None):
    """Let ``_halves`` split on any machine; return the child pids ``os.fork`` gave."""
    real_fork, pids = os.fork, []

    def tracked():
        pid = (fork or real_fork)()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    # Pinning to a made-up set would narrow this process's own CPUs for later tests.
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: None, raising=False)
    monkeypatch.setattr(os, "fork", tracked)
    return pids


def test_split_eval_falls_back_in_process_when_fork_fails(eval_corpus, tmp_path, monkeypatch):
    def fork():
        raise OSError("no fork")

    out = tmp_path / "r.json"
    argv = eval_argv(eval_corpus, out, "star", 3)
    one = run_command("eval", argv, one_cpu=True)
    assert one.returncode == EXIT_OK, one.stderr
    one_bytes = out.read_bytes()
    out.unlink()
    forcing_two_cpus(monkeypatch, fork)
    assert main(["eval", *argv]) == EXIT_OK
    assert out.read_bytes() == one_bytes


def test_degenerate_range_in_the_childs_runs_is_the_one_process_error(tmp_path, monkeypatch,
                                                                      capsys):
    corpus = tmp_path / "c.csv"
    seed = star_degenerate_in_run_1(corpus)
    out = tmp_path / "r.json"
    argv = ["--input", str(corpus), "--output", str(out), "--model", "star", "--splits", "50",
            "--runs", "2", "--seed", str(seed)]
    one = run_command("eval", argv, one_cpu=True)
    pids = forcing_two_cpus(monkeypatch)
    code = main(["eval", *argv])
    err = capsys.readouterr().err
    assert len(pids) == 1  # run 1, the one that fails, was the child's
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)  # reaped
    assert (code, err.encode()) == (one.returncode, one.stderr) == (
        EXIT_DATA,
        b"reaction-lens: degenerate data: all training aggregates are equal (split 50%, run 1)\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.csv"]
