"""Immutable records built without `dataclasses`, which would cost every
CLI call the import of `inspect`, `ast`, `dis` and `tokenize` and an `exec`
per generated method.

A subclass annotates its fields in order, after those of its base; a class
attribute of the same name is that field's default, and a dict default is
copied for each record.  Fields named in `_uncompared` are left out of ==
and hash.  A record equals only a record of its own class, its repr lists
every field, and assignment and deletion raise AttributeError.  Records keep
their instance `__dict__`, which a `cached_property` may fill.

The hash is computed on the first call and kept in the `__dict__` as
`_hash`, since records are the keys of the `lru_cache` memos, each lookup of
which hashes its arguments.  A copy or a pickle leaves it out
(`__getstate__`): string hashes are salted per process.  A record with a
dict field raises TypeError on every call, and keeps nothing."""

from operator import itemgetter


class Record:
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}
    _uncompared: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__annotations__", {})
        cls._fields += tuple(own)
        cls._defaults = {**cls._defaults, **{name: v for name, v in vars(cls).items() if name in own}}
        compared = [name for name in cls._fields if name not in cls._uncompared]
        get = itemgetter(*compared)
        # the compared values as a tuple, hashed as a dataclass hashes them
        cls._key = staticmethod(get if len(compared) > 1 else lambda values: (get(values),))

    def __init__(self, *args, **kwargs):
        cls = type(self)
        rest = cls._fields[len(args):]
        if len(args) > len(cls._fields) or kwargs and not kwargs.keys() <= set(rest):
            raise TypeError(f"{cls.__name__}() takes the fields {cls._fields}")
        values = self.__dict__
        values.update(zip(cls._fields, args), **kwargs)
        for name in rest:
            if name in values:
                continue
            if name not in cls._defaults:
                raise TypeError(f"{cls.__name__}() missing field {name!r}")
            default = cls._defaults[name]
            values[name] = dict(default) if type(default) is dict else default
        self.__post_init__()

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self.__dict__) == key(other.__dict__)
        return NotImplemented

    def __hash__(self):
        values = self.__dict__
        try:
            return values["_hash"]
        except KeyError:
            h = values["_hash"] = hash(self._key(values))
            return h

    def __getstate__(self):
        return {name: value for name, value in self.__dict__.items() if name != "_hash"}

    def __repr__(self):
        fields = ", ".join(f"{name}={self.__dict__[name]!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
