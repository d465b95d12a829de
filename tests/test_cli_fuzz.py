"""In-process fuzzing of ``cli.main``: random bytes and mutated valid inputs.

Whatever the input, a command returns one of the documented exit codes and
raises nothing; so does ``synth`` whatever its float and integer
parameters.  ``clean``'s manifest accounts for every row it read.
"""

import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from reaction_lens.cli import EXIT_OK, main
from reaction_lens.artifacts import save_lexicon
from reaction_lens.engine import CORE_SCHEMA

from oracles import build_lexicon

EXIT_CODES = {0, 2, 3, 4, 5}

HEADER = b"message,like,love,wow,haha,sad,angry,thankful\n"
CSV_ROWS = [
    b"a b,3,1,0,0,0,0,0\n", b"b c,0,0,2,0,1,0,0\n", b'"c, d",1,0,0,1,0,2,0\n',
    b"\xe0\xb7\x81 e,9,0,1,0,0,0,1\n", b"d e,0,2,0,0,0,1,0\n", b"a e,5,0,0,0,3,0,0\n",
]
JSONL_ROWS = [
    b'{"message": "a b", "like": 3, "love": 1, "wow": 0, "haha": 0, "sad": 0, '
    b'"angry": 0, "thankful": 0}\n',
    b'{"message": "b c", "like": 0, "love": 0, "wow": 2, "haha": 0, "sad": 1, '
    b'"angry": 0, "thankful": 0}\n',
    b'{"message": "c d", "like": 1, "love": 0, "wow": 0, "haha": 1, "sad": 0, '
    b'"angry": 2, "thankful": 0}\n',
    b'{"message": "a e", "like": 5, "love": 0, "wow": 0, "haha": 0, "sad": 3, '
    b'"angry": 0, "thankful": 0}\n',
]
VALID = {"csv": HEADER + b"".join(CSV_ROWS), "jsonl": b"".join(JSONL_ROWS)}


def saved_lexicon() -> bytes:
    text = io.StringIO()
    save_lexicon(build_lexicon([(["a", "b"], (0.5, 0.5, 0.0, 0.0, 0.0))], CORE_SCHEMA), text)
    return text.getvalue().encode("utf-8")


# The predict cases mutate a valid lexicon too.
LEXICON = saved_lexicon()


def mutated(base: bytes):
    """``base`` with a few spliced edits: bytes deleted and others inserted."""
    edit = st.tuples(st.integers(0, len(base)), st.integers(0, 8), st.binary(max_size=6))

    def apply(edits):
        data = base
        for at, cut, insert in edits:
            data = data[:at] + insert + data[at + cut:]
        return data

    return st.lists(edit, min_size=1, max_size=4).map(apply)


def corpora(format):
    return st.one_of(st.binary(max_size=200), mutated(VALID[format]))


def run(argv):
    code = main(argv)
    assert code in EXIT_CODES, (argv, code)
    return code


FUZZ = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow],
)


@pytest.mark.parametrize("format", ["csv", "jsonl"])
class TestCorpusCommands:
    @FUZZ
    @given(data=st.data())
    def test_stats(self, format, data):
        with tempfile.TemporaryDirectory() as tmp:
            corpus = Path(tmp) / "in"
            corpus.write_bytes(data.draw(corpora(format)))
            run(["stats", "--input", str(corpus), "--format", format,
                 "--output", str(Path(tmp) / "stats.json")])

    @FUZZ
    @given(data=st.data())
    def test_clean(self, format, data):
        with tempfile.TemporaryDirectory() as tmp:
            corpus, out = Path(tmp) / "in", Path(tmp) / "out"
            corpus.write_bytes(data.draw(corpora(format)))
            if run(["clean", "--input", str(corpus), "--output", str(out),
                    "--format", format]) == EXIT_OK:
                drops = json.loads(Path(f"{out}.manifest.json").read_text())["row_drops"]
                assert drops["rows_read"] == (
                    drops["rows_out"] + drops["empty_after_cleaning"] + drops["malformed_rows"]
                )

    @FUZZ
    @given(data=st.data(), model=st.sampled_from(["core", "all", "star"]))
    def test_train(self, format, data, model):
        with tempfile.TemporaryDirectory() as tmp:
            corpus = Path(tmp) / "in"
            corpus.write_bytes(data.draw(corpora(format)))
            run(["train", "--input", str(corpus), "--output", str(Path(tmp) / "m.lex"),
                 "--format", format, "--model", model])

    @FUZZ
    @given(data=st.data(), model=st.sampled_from(["core", "all", "star"]))
    def test_eval(self, format, data, model):
        with tempfile.TemporaryDirectory() as tmp:
            corpus = Path(tmp) / "in"
            corpus.write_bytes(data.draw(corpora(format)))
            run(["eval", "--input", str(corpus), "--output", str(Path(tmp) / "r.json"),
                 "--format", format, "--model", model, "--splits", "50", "--runs", "2"])


@FUZZ
@given(
    messages=st.one_of(st.binary(max_size=200), mutated(b"a b\nc\n\xe0\xb7\x81 a\n")),
    lexicon=st.one_of(st.just(LEXICON), mutated(LEXICON)),
)
def test_predict(messages, lexicon):
    with tempfile.TemporaryDirectory() as tmp:
        source, lexicon_path = Path(tmp) / "in", Path(tmp) / "m.lex"
        source.write_bytes(messages)
        lexicon_path.write_bytes(lexicon)
        run(["predict", "--lexicon", str(lexicon_path), "--input", str(source),
             "--output", str(Path(tmp) / "out")])


# nan, +-inf, huge, tiny, zero and negative values, plus ordinary ones.
SYNTH_FLOATS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 1e300, 1e200, 1e-200, 5e-324, 0.0, -1.0]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-2.0, 40.0),
)
SYNTH_FLAGS = (
    "--reaction-scale", "--like-variability", "--affinity-concentration",
    "--like-dominance", "--thankful-rate",
)
# Sizes a few rows can afford, and sizes past SynthSpec's bounds; nothing
# in between, so that a size the spec accepts stays small.
SYNTH_SIZES = st.one_of(
    st.integers(-2, 40),
    st.sampled_from([2**22 + 1, 10**8, 2**63, 10**30]),
    st.integers(2**22 + 1, 10**40),
)
SYNTH_INT_FLAGS = ("--vocab-size", "--length-min", "--length-max", "--seed")


@FUZZ
@given(
    rows=st.integers(-1, 20),
    values=st.dictionaries(st.sampled_from(SYNTH_FLAGS), SYNTH_FLOATS, max_size=3),
    sizes=st.dictionaries(st.sampled_from(SYNTH_INT_FLAGS), SYNTH_SIZES, max_size=3),
    affinity=st.one_of(st.none(), st.lists(SYNTH_FLOATS, min_size=5, max_size=5)),
)
@example(rows=5, values={"--like-variability": math.inf}, sizes={}, affinity=None)
@example(rows=3, values={}, sizes={"--length-min": 10**8, "--length-max": 10**8}, affinity=None)
def test_synth(rows, values, sizes, affinity):
    argv = ["synth", "--rows", str(rows), "--vocab-size", "30"]
    argv += [f"{flag}={value!r}" for flag, value in values.items()]
    argv += [f"{flag}={value}" for flag, value in sizes.items()]
    if affinity is not None:
        argv.append("--affinity=" + ",".join(map(repr, affinity)))
    with tempfile.TemporaryDirectory() as tmp:
        run([*argv, "--output", str(Path(tmp) / "c.csv")])
