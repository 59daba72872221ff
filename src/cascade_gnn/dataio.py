"""On-disk dataset formats.

A dataset directory holds users.jsonl, follows.csv, cascades.jsonl,
urls.jsonl and embeddings.jsonl.  Each JSONL line is ``json.dumps`` of one
record's fields in order, a cascade's tweets as a list of their records.
Embedding components are rounded to 7 significant digits on write;
everything else round-trips exactly.

Embeddings repeat: a retweet carries its source tweet's text, so one vector
stands in many records.  ``write_dataset`` writes each distinct vector once,
as one line of embeddings.jsonl in first-sighting order, keyed by its
float64 bytes; an embedding field of a user or tweet holds its vector's
row, the 0-based line number.  An embedding field may also hold the vector
itself, as a list of numbers, as datasets written before the table did.
``load_dataset`` checks each table row once and hands every embedding with
the same bytes, row or list, one shared read-only array per load.
"""
from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import sys
from array import array

import numpy as np

from .types import (CascadeRecord, SocialGraph, Tweet, UrlStory, User,
                    _check_embedding, first_repeat)

USERS_FILE = "users.jsonl"
FOLLOWS_FILE = "follows.csv"
CASCADES_FILE = "cascades.jsonl"
URLS_FILE = "urls.jsonl"
EMBEDDINGS_FILE = "embeddings.jsonl"


class DatasetNotFoundError(FileNotFoundError):
    pass


class DatasetFormatError(ValueError):
    """A dataset record that cannot be read, named by file and 1-based line."""

    def __init__(self, path, line: int, reason: str):
        super().__init__(f"{path}, line {line}: {reason}")
        self.path = path
        self.line = line
        self.reason = reason


def text_lines(path, newline=None):
    """The lines of a UTF-8 text file, split as ``open`` splits them with
    ``newline``.  A byte that is not UTF-8 is read as an escape, so the line
    that holds it, not the end of a read buffer, raises ``DatasetFormatError``
    with its number."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline=newline) as fh:
        for line, text in enumerate(fh, 1):
            if not text.isascii():
                try:
                    text.encode("utf-8")
                except UnicodeEncodeError as exc:
                    raise DatasetFormatError(path, line, f"character {exc.start + 1} is a byte "
                                                         "that is not UTF-8") from None
            yield text


def _round_vec(vec: np.ndarray) -> list[float]:
    return [float(f"{x:.7g}") for x in vec]


def write_dataset(dirpath, social: SocialGraph, stories: list[UrlStory],
                  cascades: list[CascadeRecord]) -> None:
    """Write a dataset directory.  Each distinct embedding, keyed by its
    float64 bytes, is one line of embeddings.jsonl, in the order the users
    and then the cascades' tweets first hold it; each embedding field holds
    its vector's row, the 0-based line number."""
    os.makedirs(dirpath, exist_ok=True)
    rows: dict[bytes, int] = {}  # the bytes of each vector -> its row

    def record(obj, fields: dict) -> dict:
        """``obj``'s on-disk record: its ``fields`` in order, with each
        embedding's row."""
        rec = {}
        for name in fields:
            value = getattr(obj, name)
            if isinstance(value, np.ndarray):
                value = rows.setdefault(value.tobytes(), len(rows))
            rec[name] = value
        return rec

    with open(os.path.join(dirpath, USERS_FILE), "w", encoding="utf-8") as fh:
        for uid in sorted(social.users):
            fh.write(json.dumps(record(social.users[uid], _USER_FIELDS)) + "\n")

    with open(os.path.join(dirpath, FOLLOWS_FILE), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["follower_id", "followee_id"])
        writer.writerows(social.pairs())

    with open(os.path.join(dirpath, CASCADES_FILE), "w", encoding="utf-8") as fh:
        for cas in sorted(cascades, key=lambda c: c.cascade_id):
            rec = record(cas, _CASCADE_FIELDS)
            rec["tweets"] = [record(t, _TWEET_FIELDS) for t in cas.tweets]
            fh.write(json.dumps(rec) + "\n")

    with open(os.path.join(dirpath, URLS_FILE), "w", encoding="utf-8") as fh:
        for story in sorted(stories, key=lambda s: s.url_id):
            fh.write(json.dumps(record(story, _STORY_FIELDS)) + "\n")

    with open(os.path.join(dirpath, EMBEDDINGS_FILE), "w", encoding="utf-8") as fh:
        for key in rows:
            fh.write(json.dumps(_round_vec(np.frombuffer(key))) + "\n")


def _require(path):
    if not os.path.isfile(path):
        raise DatasetNotFoundError(f"missing dataset file: {path}")
    return path


# The JSON types a field of each annotation of the record types may hold;
# the first one names the field's kind in an error.  An embedding is a list
# of numbers or its row in embeddings.jsonl.
_JSON_TYPES = {"str": (str,), "bool": (bool,), "int": (int,), "float": (float, int),
               "np.ndarray": (list, int), "tuple[str, ...]": (list,),
               "tuple[Tweet, ...]": (list,)}
# the range an integer must lie in to stand in a field of each kind: numpy
# holds a count as an int64, and a float field must convert to a float; an
# embedding's row is checked against the table
_INT_RANGES = {int: ("int64", np.iinfo(np.int64).max), float: ("float", sys.float_info.max)}
_JSON_NAMES = {dict: "an object", list: "an array", str: "a string", bool: "a boolean",
               int: "an integer", float: "a number", type(None): "null"}


def _fields(cls) -> dict:
    """Field name -> allowed JSON types, for the fields of a record type."""
    return {f.name: _JSON_TYPES[f.type] for f in dataclasses.fields(cls)}


def _require_fields(rec, fields: dict) -> None:
    if not isinstance(rec, dict):
        raise ValueError(f"expected a JSON object, got {_JSON_NAMES[type(rec)]}")
    missing = [f for f in fields if f not in rec]
    if missing:
        raise ValueError(f"missing field {missing[0]!r}")
    for name, types in fields.items():
        value = rec[name]
        if type(value) not in types:
            raise ValueError(f"field {name!r} must be {_JSON_NAMES[types[0]]}, "
                             f"got {_JSON_NAMES[type(value)]}")
        limit = _INT_RANGES.get(types[0])
        if type(value) is int and limit and abs(value) > limit[1]:
            raise ValueError(f"field {name!r} is beyond the {limit[0]} range")
        if type(value) is float and not math.isfinite(value):  # json reads NaN and Infinity
            raise ValueError(f"field {name!r} must be finite, got {value}")


def _vector(values: list, what: str, table: dict) -> np.ndarray:
    """The JSON list ``values`` as a read-only float64 array; a component
    that is not a JSON number raises (numpy would parse ``"0.5"`` and
    ``true`` as numbers), with ``what`` naming the list.  ``table`` maps the
    bytes of each vector converted so far to its one array, a view of those
    bytes, which every later vector with the same bytes gets."""
    if not set(map(type, values)) <= {float, int}:
        k, bad = next((k, v) for k, v in enumerate(values) if type(v) not in (float, int))
        raise ValueError(f"{what} component {k} must be a number, got {_JSON_NAMES[type(bad)]}")
    try:
        vec = np.asarray(values, dtype=np.float64)
    except OverflowError:  # an integer literal beyond the float range
        raise ValueError(f"{what} has a component beyond the float range") from None
    key = vec.tobytes()
    shared = table.get(key)
    if shared is None:
        shared = table[key] = np.frombuffer(key)
    return shared


def _embedding(rec, name: str, table: dict | None = None,
               rows: list | None = None) -> np.ndarray:
    """Field ``name`` of ``rec`` as a read-only float64 array: the array of
    its row in ``rows``, the embeddings.jsonl table (``None`` when the
    dataset has none), if it is an integer, else its list of numbers through
    ``_vector`` and ``table`` (without one, a new empty table)."""
    value = rec[name]
    if type(value) is int:
        if rows is None:
            raise ValueError(f"field {name!r} names row {value}, but there is no "
                             f"{EMBEDDINGS_FILE}")
        if not 0 <= value < len(rows):
            raise ValueError(f"field {name!r} names row {value}, but {EMBEDDINGS_FILE} "
                             f"has {len(rows)} rows, numbered from 0")
        return rows[value]
    return _vector(value, f"field {name!r}", {} if table is None else table)


def _embedding_rows(path, table: dict) -> list[np.ndarray] | None:
    """The array of each line of the embeddings.jsonl file ``path``, through
    ``_vector`` and ``table``, or ``None`` if there is no such file.  A line
    that is not a list of ``EMBEDDING_DIM`` finite numbers raises
    ``DatasetFormatError``."""
    if not os.path.isfile(path):
        return None
    rows = []
    for line, text in enumerate(text_lines(path), 1):
        try:
            values = json.loads(text)
            if type(values) is not list:
                raise ValueError(f"expected a JSON array, got {_JSON_NAMES[type(values)]}")
            rows.append(_check_embedding("embedding", _vector(values, "embedding", table)))
        except (ValueError, RecursionError) as exc:
            raise DatasetFormatError(path, line, str(exc)) from None
    return rows


def _records(path, build, id_field: str) -> dict:
    """``build(record)`` for each line of a JSONL file, keyed by its
    ``id_field`` in file order, with the line number; a line that cannot be
    built from, or that repeats an ID, raises ``DatasetFormatError``."""
    out = {}
    for line, text in enumerate(text_lines(_require(path)), 1):
        try:
            rec = build(json.loads(text))
        except (TypeError, ValueError, RecursionError) as exc:  # json nests only so deep
            raise DatasetFormatError(path, line, str(exc)) from None
        key = getattr(rec, id_field)
        if key in out:
            raise DatasetFormatError(path, line, f"duplicate {id_field} {key!r}")
        out[key] = (line, rec)
    return out


_USER_FIELDS = _fields(User)
_TWEET_FIELDS = _fields(Tweet)
_CASCADE_FIELDS = _fields(CascadeRecord)
_STORY_FIELDS = _fields(UrlStory)


def _user(rec, table: dict, rows: list | None) -> User:
    _require_fields(rec, _USER_FIELDS)
    rec["description_embedding"] = _embedding(rec, "description_embedding", table, rows)
    return User(**rec)


def _cascade(rec, table: dict, rows: list | None) -> CascadeRecord:
    _require_fields(rec, _CASCADE_FIELDS)
    tweets = []
    for k, tr in enumerate(rec["tweets"]):
        try:
            _require_fields(tr, _TWEET_FIELDS)
            tr["text_embedding"] = _embedding(tr, "text_embedding", table, rows)
            tr["hashtag_embedding"] = _embedding(tr, "hashtag_embedding", table, rows)
        except ValueError as exc:
            raise ValueError(f"tweet {k}: {exc}") from None
        tweets.append(Tweet(**tr))
    return CascadeRecord(rec["cascade_id"], rec["url_id"], tuple(tweets))


def _story(rec) -> UrlStory:
    _require_fields(rec, _STORY_FIELDS)
    for k, cid in enumerate(rec["cascade_ids"]):
        if type(cid) is not str:
            raise ValueError(f"field 'cascade_ids' item {k} must be a string, "
                             f"got {_JSON_NAMES[type(cid)]}")
    return UrlStory(rec["url_id"], rec["label"], rec["first_seen"], tuple(rec["cascade_ids"]))


def _social_graph(path, users: dict[str, User]) -> SocialGraph:
    """The graph of ``users`` with the follow rows of the CSV file ``path``.
    A row that is not two fields, a self-follow, a row naming an unknown user
    and a row that repeats an earlier one raise ``DatasetFormatError`` with
    its line; of several, the first in the file."""
    index = {u: k for k, u in enumerate(users)}
    followers, followees, lines = array("q"), array("q"), array("q")
    bad = None  # (line, reason) of the first row that cannot be read
    reader = csv.reader(text_lines(_require(path), newline=""))
    try:
        header = next(reader, None)
        if header != ["follower_id", "followee_id"]:
            raise DatasetFormatError(path, 1, f"unexpected header {header}")
        for row in reader:
            if len(row) != 2:
                reason = f"expected 2 fields, got {len(row)}"
            elif row[0] == row[1]:
                reason = f"self-follow {row[0]!r}"
            elif row[0] not in index or row[1] not in index:
                unknown = row[0] if row[0] not in index else row[1]
                reason = f"unknown user {unknown!r}"
            else:
                followers.append(index[row[0]])
                followees.append(index[row[1]])
                lines.append(reader.line_num)
                continue
            bad = (reader.line_num, reason)
            break
    except csv.Error as exc:  # a field over csv's size limit
        bad = (reader.line_num, str(exc))
    # a repeat is checked once the rows are read; any comes before ``bad``
    k = first_repeat(followers, followees)
    if k is not None:
        ids = list(users)
        raise DatasetFormatError(path, lines[k], f"duplicate follow {ids[followers[k]]!r} -> "
                                                 f"{ids[followees[k]]!r}")
    if bad is not None:
        raise DatasetFormatError(path, *bad)
    return SocialGraph.from_pairs(users, followers, followees)


def load_dataset(dirpath) -> tuple[SocialGraph, list[UrlStory], list[CascadeRecord]]:
    """Read a dataset directory.  embeddings.jsonl is read first, and only
    if an embedding field names a row must it exist.  A record that cannot
    be read raises ``DatasetFormatError`` with the file and line.  That
    includes a line that is not UTF-8, a field missing or of the wrong JSON
    type, a ``cascade_ids`` item that is not a string, an integer beyond the
    float range in a float field or beyond int64 in a count, and a float
    field that is NaN or infinite.  It includes a tweet whose author's
    account age or whose delay from its cascade's source overflows the
    float range, an embedding list with a component that is not a number
    or is beyond the float range, and an embedding row number that is
    negative or not below the table's length (named by record line, tweet
    and field), or that names a row of a missing table.  A table line that
    is not a list of ``EMBEDDING_DIM`` finite numbers names its own line.
    A repeated user, cascade, tweet or URL ID or follow row, a tweet by an
    unknown user, a cascade of an unknown story and a story whose
    ``cascade_ids`` disagree with the cascades raise it too.  Embeddings with the same bytes share
    one read-only array."""
    table: dict[bytes, np.ndarray] = {}
    rows = _embedding_rows(os.path.join(dirpath, EMBEDDINGS_FILE), table)
    users = {uid: u for uid, (_, u) in
             _records(os.path.join(dirpath, USERS_FILE), lambda rec: _user(rec, table, rows),
                      "user_id").items()}

    social = _social_graph(os.path.join(dirpath, FOLLOWS_FILE), users)

    cas_path, url_path = os.path.join(dirpath, CASCADES_FILE), os.path.join(dirpath, URLS_FILE)
    cascades = _records(cas_path, lambda rec: _cascade(rec, table, rows), "cascade_id")
    stories = _records(url_path, _story, "url_id")
    tweet_ids: set[str] = set()
    cascade_ids: dict[str, set[str]] = {}  # url_id -> its cascades
    for line, cas in cascades.values():
        for t in cas.tweets:
            if t.tweet_id in tweet_ids:
                raise DatasetFormatError(cas_path, line, f"duplicate tweet_id {t.tweet_id!r}")
            if t.author not in users:
                raise DatasetFormatError(cas_path, line, f"tweet {t.tweet_id!r}: unknown "
                                         f"author {t.author!r}")
            if t.timestamp - users[t.author].created_at == math.inf:
                raise DatasetFormatError(cas_path, line, f"tweet {t.tweet_id!r} by "
                                         f"{t.author!r}: the account age overflows")
            if t.timestamp - cas.source.timestamp == math.inf:
                raise DatasetFormatError(cas_path, line, f"tweet {t.tweet_id!r}: the delay "
                                         f"from the cascade's source overflows")
            tweet_ids.add(t.tweet_id)
        if cas.url_id not in stories:
            raise DatasetFormatError(cas_path, line, f"url_id {cas.url_id!r} names no story")
        cascade_ids.setdefault(cas.url_id, set()).add(cas.cascade_id)
    for url_id, (line, story) in stories.items():
        listed = story.cascade_ids
        odd = sorted(set(listed) ^ cascade_ids.get(url_id, set()))
        if odd:
            raise DatasetFormatError(url_path, line, f"cascade_ids and {CASCADES_FILE} "
                                     f"disagree on cascade {odd[0]!r}")
        if len(set(listed)) != len(listed):
            raise DatasetFormatError(url_path, line, "cascade_ids lists a cascade twice")
    return (social, [story for _, story in stories.values()],
            [cas for _, cas in cascades.values()])


def cascades_by_url(cascades: list[CascadeRecord]) -> dict[str, list[CascadeRecord]]:
    by_url: dict[str, list[CascadeRecord]] = {}
    for cas in cascades:
        by_url.setdefault(cas.url_id, []).append(cas)
    return by_url
