"""Properties of the one spec grammar (:mod:`repro.spec`).

Every spec family — faults, topologies, stream policies, failure
policies, arrival processes — reads its strings through the same
tokenizer, so three invariants must hold across all of them:

* **Typed values parse back** — a spec built from in-range values, in any
  key order and with any whitespace around keys and values, parses to
  exactly the object those values construct.
* **Canonical round-trip** — ``make(canonical(make(s))) == make(s)``
  where ``canonical`` is ``.spec`` (faults), ``str()`` (topologies) or
  ``.name`` (stream and failure policies).
* **Defects are named** — a duplicate key, an empty item, a NaN/inf
  value or an unknown key raises :class:`ValueError` whose message
  quotes the offending token and the whole spec.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import make_fault_model
from repro.platform import make_topology
from repro.sim.multijob import make_failure_policy, make_stream_policy

from tests.properties.strategies import (
    failure_policy_spec_cases,
    fault_spec_cases,
    spec_cases,
    spec_text,
    stream_policy_spec_cases,
    topology_spec_cases,
)

pytestmark = [pytest.mark.property, pytest.mark.spec_grammar]

CANONICAL = {
    make_fault_model: lambda model: model.spec,
    make_topology: str,
    make_stream_policy: lambda policy: policy.name,
    make_failure_policy: lambda policy: policy.name,
}


@given(case=spec_cases)
def test_typed_spec_parses_to_its_values(case):
    assert case.make(case.text) == case.expected


@given(case=spec_cases, data=st.data())
def test_whitespace_and_kind_case_are_ignored(case, data):
    pad = st.sampled_from(["", " ", "  "])
    items = [f"{data.draw(pad)}{k}{data.draw(pad)}={data.draw(pad)}{v}{data.draw(pad)}"
             for k, v, _ in case.items]
    text = f" {spec_text(case.kind.upper(), items)} "
    assert case.make(text) == case.expected


@given(case=st.one_of(fault_spec_cases, topology_spec_cases,
                      stream_policy_spec_cases, failure_policy_spec_cases))
def test_canonical_spec_round_trips(case):
    canonical = CANONICAL[case.make]
    parsed = case.make(case.text)
    again = case.make(canonical(parsed))
    assert again == parsed
    assert canonical(again) == canonical(parsed)


@st.composite
def mutated_specs(draw):
    """``(case, defective spec, token its error must name)``."""
    case = draw(spec_cases)
    items = [f"{k}={v}" for k, v, _ in case.items]
    numeric = [(k, v) for k, v, is_number in case.items if is_number]
    mutations = ["empty", "unknown"]
    if items:
        mutations.append("duplicate")
    if numeric:
        mutations.append("nonfinite")
    mutation = draw(st.sampled_from(mutations))
    at = draw(st.integers(0, len(items)))
    if mutation == "empty":
        items[at:at] = [""] if items else ["", ""]
        token = "empty parameter item"
    elif mutation == "unknown":
        items.insert(at, "bogus_key=1")
        token = "'bogus_key'"
    elif mutation == "duplicate":
        key, value, _ = draw(st.sampled_from(case.items))
        items.insert(at, f"{key}={value}")
        token = f"duplicate parameter {key!r}"
    else:
        key, value = draw(st.sampled_from(numeric))
        bad = draw(st.sampled_from(["nan", "inf", "-inf", "NaN", "Infinity"]))
        items[items.index(f"{key}={value}")] = f"{key}={bad}"
        token = f"{key}={bad}"
    return case, spec_text(case.kind, items), token


@given(mutated=mutated_specs())
def test_defective_spec_raises_naming_the_token(mutated):
    case, text, token = mutated
    with pytest.raises(ValueError) as info:
        case.make(text)
    message = str(info.value)
    assert token in message
    assert repr(text) in message
