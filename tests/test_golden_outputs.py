"""Golden outputs: the CLI pipeline reproduces recorded sha256 digests.

One fixed synthetic corpus goes through ``synth -> clean -> train`` (core,
all, star) and ``eval`` (core, all, star; JSON and CSV reports); core and
star are also evaluated with unsorted splits and three runs, which pins the
report order and values when the fractions are not given in descending
order.  The same spec also goes through ``synth -> clean`` as JSONL.  Each
lexicon then predicts ``MESSAGES``, raw lines that trigger every cleaning
rule, with ``STOPWORDS`` as the stopword file.  Every output must hash to
the digest recorded below, so a refactor that changes any lexicon value,
report value, prediction or row by a single bit fails here.  ``stats``
of the raw corpus is pinned too: its JSON output and its standard output.

Run-specific content is left out of the digests: the lexicon's
``#manifest`` line and the JSON report's ``manifest`` field hold a run id
derived from the input paths.  A lexicon digest therefore covers its
``#sha256`` body digest plus the schema, entry count and train-mean
headers.  Each lexicon must also load and save back to its own bytes,
``#manifest`` line included.
"""

import hashlib
import io
import json
from contextlib import redirect_stdout

import pytest

from reaction_lens.cli import EXIT_OK, main
from reaction_lens.artifacts import load_lexicon, save_lexicon

MODELS = ("core", "all", "star")
SYNTH_FLAGS = ["--rows", "2000", "--vocab-size", "400", "--seed", "11"]
EVAL_FLAGS = ["--splits", "90,50", "--runs", "2", "--seed", "0"]
UNSORTED_EVAL_FLAGS = ["--splits", "50,95,70", "--runs", "3", "--seed", "0"]
# Mixed-case URLs, emails, a@b, tags, hashtags, ASCII and Sinhala lith
# digits, a digit-only stopword, ZWJ, controls, Devanagari, emoji, an empty
# line, unknown words only, and repeated words; the synth vocabulary is
# w0000..w0399.
MESSAGES = [
    "w0001 w0002 WWW.Example.com HTTP://x.org https://a.b/c www.site Http://y",
    "mail user@example.com or a@b then w0003 x@y@z.com",
    "@tag #hashtag w0004 #w0005 @w0006 w0007#",
    "2021 \u0de7\u0de8\u0de9 12345 w0007 1w0008 \u0de60",
    "w00\u200d09 w0010\x07w0011 \x00 w0012\u200bw0013\u00adw0014 \x85",
    "\u0928\u092e\u0938\u094d\u0924\u0947 w0014 w0015\U0001f600 \U0001f642 w0016",
    "",
    "\u0dc1\u0dca\u200d\u0dbb\u0dd3 \u0dbd\u0d82\u0d9a\u0dcf\u0dc0 w0016 \u0dc3\u0dc4",
    "unknown words only",
    "w0017 w0017 W0017 w0018\tw0019",
]
STOPWORDS = ["2021", "\u0dc3\u0dc4", "the"]

GOLDEN = {
    "corpus.csv": "6ff93cfbf057854ba507769fa565f1b8bbc6b207f0d0040b6b84c1ecb9a47611",
    "cleaned.csv": "6ff93cfbf057854ba507769fa565f1b8bbc6b207f0d0040b6b84c1ecb9a47611",
    "corpus.jsonl": "af7afd0f537283564c8cd79260763db4cb355989e922460ca95879e80fd4a623",
    "cleaned.jsonl": "af7afd0f537283564c8cd79260763db4cb355989e922460ca95879e80fd4a623",
    "core.lex": "29c72e5d9014354148ad412c909a28e4dceaf9dd5b9fc16b106030432d4b8c83",
    "all.lex": "7642edf743f95fc89f49026f3843ff7328bf0ac190e945f914785f4c7f3e195a",
    "star.lex": "c68ac05c8024ae522f34d44d126d5fae5c8626ccbc63221a5a72680e11b12bb7",
    "eval_core.json": "92b8cbf6c529cb6f100120fb1e6728bcb2ae40d4a95611872f300581c1521cac",
    "eval_core.csv": "98f4c072934c63b72ec6cee568ee0419b54e478b04103527ea0c33b25dd6b5ca",
    "eval_all.json": "8d8ea0bcbc4574b9ed2dfda3df1f4825ac085d15e4651b976a0746d3d576b8b2",
    "eval_all.csv": "32e20ebd7acefc8703c970a3444aaa0afcb1bcccf4e1f4ea460f54680985d351",
    "eval_star.json": "70df575a54f1a70293c5428cfca55773d94d9070cceebbeab5e0eaf26aa3be4b",
    "eval_star.csv": "a545f606e13a0b7611da0d89a1388dc43c5cc3ffaf0a80ed0c1e4dc78d87e085",
    "eval_core_unsorted.json": "57a558ff71328a0edb48345acb4b68b50c0cb3674775ddb73ec5396421323d10",
    "eval_star_unsorted.json": "73e4a9d8fa9f85483292c9ca4055cd8624ded8996f6199457688fc13e146a7b0",
    "predict_core.txt": "a7acb0d377d4602716cd3ec31a05f796649d09d261813a7781e681ceaa33d52f",
    "predict_all.txt": "10a42a111b5022b0a90afe981899021a09b5249e570bdde4d15254b2a394535a",
    "predict_star.txt": "9c97a929f651a67790523a38079689d13762963af44d753ab895a706002ff8ce",
    "stats.json": "ac39692565dc363e4c07f86d1cf466007de1b978e07406e44b385cad36523bfe",
    "stats.stdout": "886a75d23acc91cbe80e745d7adb989332345c2848f6ea5bec5f4aaf2eaa2111",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digest(path) -> str:
    if path.suffix == ".lex":
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        return _sha256("".join(x for x in lines if not x.startswith("#manifest\t")).encode())
    if path.suffix == ".json":
        report = json.loads(path.read_text(encoding="utf-8"))
        if path.name != "stats.json":  # the one JSON output without a run id
            report.pop("manifest")
        return _sha256(json.dumps(report, sort_keys=True, separators=(",", ":")).encode())
    return _sha256(path.read_bytes())


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    corpus, cleaned = d / "corpus.csv", d / "cleaned.csv"
    commands = [
        ["synth", "--output", str(corpus), *SYNTH_FLAGS],
        ["clean", "--input", str(corpus), "--output", str(cleaned)],
        ["synth", "--output", str(d / "corpus.jsonl"), "--format", "jsonl", *SYNTH_FLAGS],
        ["clean", "--input", str(d / "corpus.jsonl"), "--output", str(d / "cleaned.jsonl"),
         "--format", "jsonl"],
    ]
    messages, stopwords = d / "messages.txt", d / "stop.txt"
    messages.write_text("".join(m + "\n" for m in MESSAGES), encoding="utf-8")
    stopwords.write_text("".join(w + "\n" for w in STOPWORDS), encoding="utf-8")
    for model in MODELS:
        commands.append(["train", "--input", str(cleaned), "--output",
                         str(d / f"{model}.lex"), "--model", model])
        commands.append(["predict", "--lexicon", str(d / f"{model}.lex"), "--input",
                         str(messages), "--output", str(d / f"predict_{model}.txt"),
                         "--stopwords", str(stopwords)])
        for fmt in ("json", "csv"):
            commands.append(["eval", "--input", str(cleaned), "--output",
                             str(d / f"eval_{model}.{fmt}"), "--model", model,
                             "--report-format", fmt, *EVAL_FLAGS])
    for model in ("core", "star"):
        commands.append(["eval", "--input", str(cleaned), "--output",
                         str(d / f"eval_{model}_unsorted.json"), "--model", model,
                         *UNSORTED_EVAL_FLAGS])
    for argv in commands:
        assert main(argv) == EXIT_OK, argv
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        assert main(["stats", "--input", str(corpus), "--output", str(d / "stats.json")]) == EXIT_OK
    (d / "stats.stdout").write_text(stdout.getvalue(), encoding="utf-8")
    return d


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_digest(outputs, name):
    assert _digest(outputs / name) == GOLDEN[name]


@pytest.mark.parametrize("model", MODELS)
def test_lexicon_load_save_round_trip(outputs, model):
    path = outputs / f"{model}.lex"
    lexicon = load_lexicon(path)
    sink = io.StringIO()
    save_lexicon(lexicon, sink)
    assert sink.getvalue().encode("utf-8") == path.read_bytes()
