"""Controller files on transducers that Hypothesis draws: `save_transducer`
writes the bytes of `json.dumps(transducer_to_json(T), indent=2,
sort_keys=True)` and a newline, and `load_transducer` reads them back.
Skipped where Hypothesis is not installed: the package itself needs only
the standard library."""

import json
import os
import tempfile

import pytest

from hqsynth.common import all_letters
from hqsynth.transducers import (
    Transducer,
    load_transducer,
    save_transducer,
    transducer_to_json,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# names and ids with quotes, backslashes, control and non-ASCII characters
TEXT = st.text(st.sampled_from('ab"\\/\n\té☃\U0001f600 '), max_size=4)


@st.composite
def transducers(draw):
    """A transducer with 0-3 inputs, 0-2 outputs and int or string ids."""
    names = draw(st.lists(TEXT, min_size=0, max_size=5, unique=True))
    cut = draw(st.integers(0, min(3, len(names))))
    inputs, outputs = frozenset(names[:cut]), frozenset(names[cut:][:2])
    states = draw(st.lists(st.one_of(st.integers(-10**20, 10**20), TEXT),
                           min_size=1, max_size=4, unique=True))
    letters = all_letters(inputs)
    delta = {(q, i): draw(st.sampled_from(states)) for q in states for i in letters}
    labels = {q: frozenset(draw(st.lists(st.sampled_from(sorted(outputs)), max_size=2)))
              if outputs else frozenset() for q in states}
    return Transducer(inputs, outputs, states, draw(st.sampled_from(states)), delta, labels)


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(transducers())
def test_controller_file_bytes_and_round_trip(T):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ctrl.json")
        save_transducer(T, path)
        with open(path, "rb") as fh:
            written = fh.read()
        assert written == (json.dumps(transducer_to_json(T), indent=2, sort_keys=True)
                           + "\n").encode()
        back = load_transducer(path)
    assert (back.inputs, back.outputs, back.states, back.initial, back.delta, back.labels) \
        == (T.inputs, T.outputs, T.states, T.initial, T.delta, T.labels)


def test_other_ids_are_written_as_json_writes_them(tmp_path):
    # ids no controller file can hold still save as json.dumps has them
    T = Transducer(frozenset({"a"}), frozenset(), [(0, 1), 2.5], (0, 1),
                   {(q, i): 2.5 for q in [(0, 1), 2.5] for i in all_letters({"a"})},
                   {(0, 1): frozenset(), 2.5: frozenset()})
    path = tmp_path / "ctrl.json"
    save_transducer(T, str(path))
    assert path.read_text() == json.dumps(transducer_to_json(T), indent=2, sort_keys=True) + "\n"
