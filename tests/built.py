"""Compare two ways of building a value, rejections included."""

from tournsim import InvalidInputError, InvalidPairingError


def built(build):
    """build()'s value, or the type and message of the InvalidInputError
    or InvalidPairingError it raised."""
    try:
        return build()
    except (InvalidPairingError, InvalidInputError) as e:
        return type(e), str(e)
