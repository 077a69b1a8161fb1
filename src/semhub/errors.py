"""Exception hierarchy shared across the middleware."""


class HubError(Exception):
    """Base class for every error raised by this package."""


# --- semantic store ---------------------------------------------------------

class MalformedIri(HubError):
    pass


class MalformedLiteral(HubError):
    pass


class UnboundVariable(HubError):
    pass


class ComparisonTypeError(HubError):
    """Filter comparison between incompatible term kinds or datatypes."""


class MalformedQuery(HubError):
    """A query document whose fields do not have the expected JSON shape."""


class BindingLimitExceeded(HubError):
    """A join that would hold more intermediate bindings than the store allows."""


# --- object layer -----------------------------------------------------------

class DuplicateId(HubError):
    pass


class MissingDescription(HubError):
    pass


class UnknownSource(HubError):
    pass


class StaleSequence(HubError):
    pass


class ActionFailure(HubError):
    def __init__(self, rule_id: str, reason: str):
        super().__init__(f"rule {rule_id}: {reason}")
        self.rule_id = rule_id
        self.reason = reason


# --- interoperability pipeline ----------------------------------------------

class DatatypeMismatch(HubError):
    def __init__(self, column: str, detail: str = ""):
        super().__init__(f"column {column!r}: {detail}" if detail else f"column {column!r}")
        self.column = column


class TableMismatch(HubError):
    pass


# --- knowledge analytics ----------------------------------------------------

class RuleError(HubError):
    pass


class AmbiguousDerivation(HubError):
    pass


class AmbiguousActivity(AmbiguousDerivation):
    pass


class AmbiguousStatus(AmbiguousDerivation):
    pass


class UnknownConcept(HubError):
    pass


# --- data analytics ---------------------------------------------------------

class EmptyDataset(HubError):
    pass


class SchemaMismatch(HubError):
    pass


class InvalidHyperparam(HubError):
    pass


class MissingConfig(HubError):
    def __init__(self, analyzer: str):
        super().__init__(f"missing model config for analyzer {analyzer!r}")
        self.analyzer = analyzer


class ModelUnavailable(HubError):
    pass


# --- service management -----------------------------------------------------

class UnknownCapability(HubError):
    pass


class NoTemplate(HubError):
    pass


class ParamViolation(HubError):
    pass


class SingletonExists(HubError):
    pass


class IllegalTransition(HubError):
    pass


class LastRunningInstance(HubError):
    """Refused a halt that would leave zero running instances of a kind."""


class UnresolvableKind(HubError):
    def __init__(self, kind: str):
        super().__init__(f"no running instance and no template for kind {kind!r}")
        self.kind = kind


# --- message bus ------------------------------------------------------------

class InvalidFilter(HubError):
    pass


class BrokerDown(HubError):
    pass


# --- hub runtime ------------------------------------------------------------

class UnsatisfiableRequirement(HubError):
    pass


class MalformedScenario(HubError):
    """A scenario file that is not JSON or does not have the scenario's shape."""


class TickOutOfRange(HubError):
    """A request for a tick before the run starts or after it ends."""
