"""Property test: persistence is answer-preserving.

For any database of random contract specs and any random query, the
loaded copy of a saved snapshot returns the same permitted names as the
database that produced it (ids may be renumbered, names may not drift).
"""

import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broker.database import ContractDatabase
from repro.broker.options import QueryOptions
from repro.broker.persist import load_database, save_database
from repro.ltl.printer import format_formula

from tests.strategies import contract_specs, filter_specs, formulas


@st.composite
def databases(draw):
    specs = draw(
        st.lists(
            contract_specs(max_clauses=2, max_depth=2),
            min_size=1,
            max_size=3,
            unique_by=lambda spec: spec.name,
        )
    )
    db = ContractDatabase()
    for spec in specs:
        db.register(spec)
    return db


@given(databases(), formulas(("a", "b", "c", "x"), max_depth=2),
       filter_specs())
@settings(max_examples=20, deadline=None)
def test_save_load_query_equivalence(db, query_formula, filter_spec):
    query = format_formula(query_formula)
    options = QueryOptions(attribute_filter=filter_spec.build())
    before = db.query(query, options)
    with tempfile.TemporaryDirectory(prefix="repro-roundtrip-") as directory:
        save_database(db, directory)
        loaded = load_database(directory)
    after = loaded.query(query, options)
    # load renumbers ids densely, so names are the stable identity
    assert set(after.contract_names) == set(before.contract_names)
    assert set(after.maybe_names) == set(before.maybe_names)
