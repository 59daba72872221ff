"""On-disk dataset formats.

A dataset directory holds users.jsonl, follows.csv, cascades.jsonl and
urls.jsonl.  Embedding components are rounded to 7 significant digits on
write; everything else round-trips exactly.
"""
from __future__ import annotations

import csv
import dataclasses
import json
import os

import numpy as np

from .types import CascadeRecord, SocialGraph, Tweet, UrlStory, User

USERS_FILE = "users.jsonl"
FOLLOWS_FILE = "follows.csv"
CASCADES_FILE = "cascades.jsonl"
URLS_FILE = "urls.jsonl"


class DatasetNotFoundError(FileNotFoundError):
    pass


class DatasetFormatError(ValueError):
    """A dataset record that cannot be read, named by file and 1-based line."""

    def __init__(self, path, line: int, reason: str):
        super().__init__(f"{path}, line {line}: {reason}")
        self.path = path
        self.line = line
        self.reason = reason


def _round_vec(vec: np.ndarray) -> list[float]:
    return [float(f"{x:.7g}") for x in vec]


def _user_record(u: User) -> dict:
    return {
        "user_id": u.user_id,
        "geo_enabled": u.geo_enabled,
        "background_picture": u.background_picture,
        "default_profile": u.default_profile,
        "default_profile_image": u.default_profile_image,
        "verified": u.verified,
        "lang": u.lang,
        "description_embedding": _round_vec(u.description_embedding),
        "statuses_count": u.statuses_count,
        "favourites_count": u.favourites_count,
        "listed_count": u.listed_count,
        "followers_count": u.followers_count,
        "friends_count": u.friends_count,
        "created_at": u.created_at,
    }


def _tweet_record(t: Tweet) -> dict:
    return {
        "tweet_id": t.tweet_id,
        "author": t.author,
        "timestamp": t.timestamp,
        "is_source": t.is_source,
        "retweeted_reply_count": t.retweeted_reply_count,
        "retweeted_quote_count": t.retweeted_quote_count,
        "retweeted_favorite_count": t.retweeted_favorite_count,
        "retweeted_retweet_count": t.retweeted_retweet_count,
        "source_device": t.source_device,
        "text_embedding": _round_vec(t.text_embedding),
        "hashtag_embedding": _round_vec(t.hashtag_embedding),
    }


def write_dataset(dirpath, social: SocialGraph, stories: list[UrlStory],
                  cascades: list[CascadeRecord]) -> None:
    os.makedirs(dirpath, exist_ok=True)

    with open(os.path.join(dirpath, USERS_FILE), "w", encoding="utf-8") as fh:
        for uid in sorted(social.users):
            fh.write(json.dumps(_user_record(social.users[uid])) + "\n")

    with open(os.path.join(dirpath, FOLLOWS_FILE), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["follower_id", "followee_id"])
        for a, b in sorted(social.follows):
            writer.writerow([a, b])

    with open(os.path.join(dirpath, CASCADES_FILE), "w", encoding="utf-8") as fh:
        for cas in sorted(cascades, key=lambda c: c.cascade_id):
            rec = {"cascade_id": cas.cascade_id, "url_id": cas.url_id,
                   "tweets": [_tweet_record(t) for t in cas.tweets]}
            fh.write(json.dumps(rec) + "\n")

    with open(os.path.join(dirpath, URLS_FILE), "w", encoding="utf-8") as fh:
        for story in sorted(stories, key=lambda s: s.url_id):
            rec = {"url_id": story.url_id, "label": story.label,
                   "first_seen": story.first_seen,
                   "cascade_ids": list(story.cascade_ids)}
            fh.write(json.dumps(rec) + "\n")


def _require(path):
    if not os.path.isfile(path):
        raise DatasetNotFoundError(f"missing dataset file: {path}")
    return path


def _require_fields(rec, fields) -> None:
    if not isinstance(rec, dict):
        raise ValueError(f"expected a JSON object, got {type(rec).__name__}")
    missing = [f for f in fields if f not in rec]
    if missing:
        raise ValueError(f"missing field {missing[0]!r}")


def _records(path, build, id_field: str) -> dict:
    """``build(record)`` for each line of a JSONL file, keyed by its
    ``id_field`` in file order, with the line number; a line that cannot be
    built from, or that repeats an ID, raises ``DatasetFormatError``."""
    out = {}
    with open(_require(path), "r", encoding="utf-8") as fh:
        for line, text in enumerate(fh, 1):
            try:
                rec = build(json.loads(text))
            except (TypeError, ValueError) as exc:
                raise DatasetFormatError(path, line, str(exc)) from None
            key = getattr(rec, id_field)
            if key in out:
                raise DatasetFormatError(path, line, f"duplicate {id_field} {key!r}")
            out[key] = (line, rec)
    return out


_USER_FIELDS = tuple(f.name for f in dataclasses.fields(User))
_TWEET_FIELDS = tuple(f.name for f in dataclasses.fields(Tweet) if f.name != "cascade_id")


def _user(rec) -> User:
    _require_fields(rec, _USER_FIELDS)
    rec["description_embedding"] = np.asarray(rec["description_embedding"])
    return User(**rec)


def _cascade(rec) -> CascadeRecord:
    _require_fields(rec, ("cascade_id", "url_id", "tweets"))
    tweets = []
    for k, tr in enumerate(rec["tweets"]):
        try:
            _require_fields(tr, _TWEET_FIELDS)
        except ValueError as exc:
            raise ValueError(f"tweet {k}: {exc}") from None
        tr["text_embedding"] = np.asarray(tr["text_embedding"])
        tr["hashtag_embedding"] = np.asarray(tr["hashtag_embedding"])
        tweets.append(Tweet(cascade_id=rec["cascade_id"], **tr))
    return CascadeRecord(rec["cascade_id"], rec["url_id"], tuple(tweets))


def _story(rec) -> UrlStory:
    _require_fields(rec, ("url_id", "label", "first_seen", "cascade_ids"))
    return UrlStory(rec["url_id"], rec["label"], rec["first_seen"], tuple(rec["cascade_ids"]))


def load_dataset(dirpath) -> tuple[SocialGraph, list[UrlStory], list[CascadeRecord]]:
    """Read a dataset directory.  A record that cannot be read, a repeated
    user, cascade, tweet or URL ID, a tweet by an unknown user, a cascade
    of an unknown story and a story whose ``cascade_ids`` disagree with the
    cascades raise ``DatasetFormatError`` with the file and line."""
    users = {uid: u for uid, (_, u) in
             _records(os.path.join(dirpath, USERS_FILE), _user, "user_id").items()}

    follows = set()
    path = os.path.join(dirpath, FOLLOWS_FILE)
    with open(_require(path), "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["follower_id", "followee_id"]:
            raise DatasetFormatError(path, 1, f"unexpected header {header}")
        for row in reader:
            if len(row) != 2:
                reason = f"expected 2 fields, got {len(row)}"
            elif row[0] == row[1]:
                reason = f"self-follow {row[0]!r}"
            elif row[0] not in users or row[1] not in users:
                unknown = row[0] if row[0] not in users else row[1]
                reason = f"unknown user {unknown!r}"
            else:
                follows.add((row[0], row[1]))
                continue
            raise DatasetFormatError(path, reader.line_num, reason)
    social = SocialGraph(users=users, follows=frozenset(follows))

    cas_path, url_path = os.path.join(dirpath, CASCADES_FILE), os.path.join(dirpath, URLS_FILE)
    cascades = _records(cas_path, _cascade, "cascade_id")
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
