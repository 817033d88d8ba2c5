import hyperalpha


def test_public_names_resolve():
    names = hyperalpha.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(hyperalpha, name)]
    assert missing == []


def test_star_import_exports_all():
    namespace = {}
    exec("from hyperalpha import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(hyperalpha.__all__)
