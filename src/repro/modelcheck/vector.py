"""Names benchmark tracers patch; nothing calls them (the vector engine is gone)."""


def canonical_many(*args):
    """Removed; raises NotImplementedError."""
    raise NotImplementedError("the NumPy vector engine was removed")


def advance_clear_many(*args):
    """Removed; raises NotImplementedError."""
    raise NotImplementedError("the NumPy vector engine was removed")


class VectorFrontierExplorer:
    """Removed explorer; no cell is routed to it."""

    @staticmethod
    def supports_cell(*args) -> bool:
        """Always ``False``."""
        return False
