"""Exception hierarchy.

Two branches matter to the command line: ConfigError maps to exit code 1,
DataError (and subclasses) to exit code 2.
"""


class BiontError(Exception):
    pass


class ConfigError(BiontError):
    """Invalid run configuration or command usage."""


class DataError(BiontError):
    """Malformed or inconsistent input data."""


# --- ontology files ---------------------------------------------------------

class MalformedStanza(DataError):
    pass


class DuplicateId(DataError):
    pass


class DanglingParent(DataError):
    pass


class CycleDetected(DataError):
    def __init__(self, ids):
        self.ids = set(ids)
        super().__init__("cycle through: " + ", ".join(sorted(self.ids)))


class UnknownConcept(DataError):
    pass


class ObsoleteConcept(DataError):
    pass


class CrossOntologyPair(DataError):
    pass


class MalformedLine(DataError):
    """Bad record line in a tabular or JSON-lines file (GAF, lexicon,
    cross-reference, vectors, instances)."""


# --- corpora ----------------------------------------------------------------

class MalformedXml(DataError):
    pass


class OffsetMismatch(DataError):
    pass


class MissingColumn(DataError):
    pass


# --- parses and instances ---------------------------------------------------

class MalformedConllu(DataError):
    pass


class TokenAlignmentFailure(DataError):
    pass


class NoOverlappingToken(DataError):
    pass


class Disconnected(DataError):
    pass


class UnmappableEntity(DataError):
    pass


# --- model ------------------------------------------------------------------

class DimensionMismatch(DataError):
    pass


class MalformedVectorLine(DataError):
    pass


class ShapeMismatch(DataError):
    pass


class NonFiniteLoss(DataError):
    def __init__(self, epoch, message=""):
        self.epoch = epoch
        super().__init__(message or f"non-finite loss at epoch {epoch}")
