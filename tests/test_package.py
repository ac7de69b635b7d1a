import sectoral


def test_all_names_resolve():
    missing = [name for name in sectoral.__all__
               if getattr(sectoral, name, None) is None]
    assert missing == []
    assert len(set(sectoral.__all__)) == len(sectoral.__all__)
