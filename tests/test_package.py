"""Package-level checks."""

import loopcert


def test_all_names_resolve():
    # a stale __all__ entry breaks `from loopcert import *`
    missing = [name for name in loopcert.__all__ if not hasattr(loopcert, name)]
    assert not missing
    namespace = {}
    exec("from loopcert import *", namespace)
    assert set(loopcert.__all__) <= set(namespace)
