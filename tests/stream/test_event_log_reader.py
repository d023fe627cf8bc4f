"""Hostile bytes for the event-log reader (:func:`repro.stream.read_event_log`).

The reference is spelled out here, independent of the reader: each
stripped, non-blank, non-comment line goes through ``json.loads``, must
be a JSON object, and then follows the record rules of
:func:`repro.stream.parse_event` as they have always read.  Every
mutated line must make the reader yield exactly the reference's
:class:`Event` or raise :class:`MonitorError` with the reference's
message — and nothing else may escape.

The reader remembers each valid line it decoded (until ``_MEMO_CAP``
lines, then it starts over); logs that repeat their lines hold it to
the same reference, so the memo never shows.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MonitorError
from repro.stream import Event, engine, read_event_log

VALID_RECORDS = [
    '{"events": ["purchase"]}',
    '{"events": [], "contract": "c1"}',
    '{"contract": null, "events": ["a", "b"]}',
    '{"events": ["refund", "x9"], "contract": "ticket-2"}',
    '  {"events":["a"],"contract":"z"}\t',
]

#: substitution alphabet: JSON structure, quoting, escapes, a digit, a
#: letter, a comment marker, whitespace and a byte-order mark
ALPHABET = '{}[]",:\\0a# \ufeff'

DEEP = 100_000
BIG = "9" * 5000

CORPUS = [
    "\ufeff" + VALID_RECORDS[0],                     # BOM
    '{"events": [NaN, Infinity, -Infinity]}',        # non-standard floats
    '{"events": ["a"], "events": ["b"]}',            # duplicate keys
    '{"events": ["a"], "contract": "x", "contract": 3}',
    '{"events": [["a"], {"b": 1}, 2.5, true, null]}',  # nested event values
    '{"events": ["\\u0000"]}',                       # NUL
    '{"events": ["\\ud800"]}',                       # lone surrogate
    '{"events": ["a"]} {"events": ["b"]}',           # extra data
    '[1, 2]', '"events"', "17", "null",              # not an object
    "{}", '{"events": "a"}', '{"events": 3}', '{"events": {}}',
    '{"events": [], "contract": 7}',
    "", "   ", "\t", "#", "# a comment", "  # indented comment",
    "[" * DEEP + "]" * DEEP,                         # nesting too deep
    '{"events": ' + "[" * DEEP + "]" * DEEP + "}",
    '{"events": [' + BIG + "]}",                     # past the int limit
    '{"events": [], "contract": ' + BIG + "}",
]


def reference(lines):
    """``(lineno, Event | error message)`` per record line."""
    out = []
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as exc:
            out.append((lineno, f"event log line {lineno} is not valid "
                                f"JSON: {exc}"))
            return out
        if not isinstance(doc, dict):
            out.append((lineno, f"event log line {lineno} must be a "
                                f"JSON object"))
            return out
        if "events" not in doc:
            out.append((lineno, "stream record must carry an 'events' "
                                f"list: {doc!r}"))
            return out
        events = doc["events"]
        if isinstance(events, str) or not isinstance(
            events, (list, tuple, set, frozenset)
        ):
            out.append((lineno, "'events' must be a list of event names: "
                                f"{events!r}"))
            return out
        contract = doc.get("contract")
        if contract is not None and not isinstance(contract, str):
            out.append((lineno, "'contract' must be a name or null: "
                                f"{contract!r}"))
            return out
        out.append((lineno, Event(frozenset(str(e) for e in events),
                                  contract)))
    return out


def assert_matches_reference(lines):
    expected = reference(lines)
    events = [value for _, value in expected if isinstance(value, Event)]
    errors = [value for _, value in expected if isinstance(value, str)]
    got = []
    try:
        for event in read_event_log(lines):
            got.append(event)
    except MonitorError as exc:
        assert errors == [str(exc)], lines
    except Exception as exc:  # noqa: BLE001 - the property under test
        pytest.fail(f"{type(exc).__name__} escaped for {lines!r:.200}")
    else:
        assert not errors, lines
    assert got == events, lines


def mutants(record):
    for end in range(len(record) + 1):
        yield record[:end]
    for i in range(len(record)):
        for char in ALPHABET:
            if char != record[i]:
                yield record[:i] + char + record[i + 1:]


@pytest.mark.parametrize("record", VALID_RECORDS)
def test_every_truncation_and_substitution_matches_the_reference(record):
    for line in mutants(record):
        assert_matches_reference([line])


@pytest.mark.parametrize("line", CORPUS, ids=range(len(CORPUS)))
def test_fixed_corpus_matches_the_reference(line):
    # behind a skipped comment and a valid record: a rejected line is
    # reported as line 3
    assert_matches_reference(["# header", VALID_RECORDS[0], line])


#: records over a small pool, so two lines share events but not a
#: contract, or a contract but not events
DRAWN_RECORDS = st.builds(
    lambda events, contract: json.dumps({"events": events, **contract}),
    st.sampled_from([[], ["a"], ["a", "b"]]),
    st.sampled_from([{}, {"contract": None}, {"contract": "c1"},
                     {"contract": "c2"}]),
)
LINES = st.one_of(
    st.tuples(st.sampled_from(["", " ", "\t"]),
              st.sampled_from(VALID_RECORDS) | DRAWN_RECORDS,
              st.sampled_from(["", "\n", " ", "\t\n", "\r\n"])).map(
        "".join),
    st.sampled_from(["", "\n", "   ", "# comment", "#"]),
)


@st.composite
def repetitive_logs(draw):
    """Up to 40 lines drawn from a pool of at most six, plus at most
    one corpus line at a drawn position."""
    pool = draw(st.lists(LINES, min_size=1, max_size=6))
    lines = draw(st.lists(st.sampled_from(pool), max_size=40))
    hostile = draw(st.none() | st.sampled_from(CORPUS))
    if hostile is not None:
        lines.insert(draw(st.integers(0, len(lines))), hostile)
    return lines


@pytest.mark.parametrize("cap", [engine._MEMO_CAP, 2])
@given(repetitive_logs())
@settings(max_examples=300, deadline=None)
def test_repeated_lines_match_the_reference(cap, lines):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_MEMO_CAP", cap)
        assert_matches_reference(lines)


def test_a_repeated_line_yields_the_same_event():
    line = VALID_RECORDS[3]
    first, again, other = read_event_log([line, "", line, line + " "])
    assert first is again and first == other and first is not other
