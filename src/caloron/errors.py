"""Exception types shared across the toolkit, one per CLI outcome: a
ConfigError exits 2 and a SingularOperatorError exits 4."""


class CaloronError(Exception):
    pass


class ConfigError(CaloronError, ValueError):
    pass


class SingularOperatorError(CaloronError, ArithmeticError):
    pass
