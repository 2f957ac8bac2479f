import types

import freqconn


def test_all_is_the_bound_public_surface():
    names = freqconn.__all__
    assert len(names) == len(set(names))
    assert all(hasattr(freqconn, name) for name in names)
    bound = {name for name, value in vars(freqconn).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(names) == bound
    namespace = {}
    exec("from freqconn import *", namespace)
    assert set(names) <= set(namespace)
