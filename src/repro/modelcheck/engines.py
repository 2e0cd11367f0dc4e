"""Model-check engine name: one packed pure-stdlib engine exists."""


def resolve_engine(name=None) -> str:
    """Always ``"packed"``; raises ValueError for another name than None/auto/packed."""
    if name not in (None, "auto", "packed"):
        raise ValueError(f"unknown model-check engine {name!r}; only 'packed' exists")
    return "packed"
