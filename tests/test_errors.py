import pickle

import pytest

from vckb import errors
from vckb.errors import MalformedRecord, VckbError

ERROR_TYPES = [
    value
    for value in vars(errors).values()
    if isinstance(value, type) and issubclass(value, VckbError)
]


@pytest.mark.parametrize("error_type", ERROR_TYPES, ids=lambda t: t.__name__)
def test_error_survives_pickle(error_type):
    # Errors raised in a worker process reach the parent pickled.
    if issubclass(error_type, MalformedRecord):
        error = error_type("data.tsv", 4000, "trailing fields after record")
    else:
        error = error_type("bad input")
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is error_type
    assert str(copy) == str(error)
    assert vars(copy) == vars(error)

