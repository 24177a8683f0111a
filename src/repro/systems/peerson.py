"""PeerSoN: P2P social networking over a DHT (Buchegger et al.).

As the paper describes it: PeerSoN "utilize[s] structured control overlay"
(a DHT lookup service), uses **public key encryption** for content
(Section III-C), digital signatures for integrity (Section IV), and keys
"distributed out-of-band like physical meeting" (Section IV-A).

Composition: :class:`~repro.overlay.chord.ChordRing` for lookup/storage +
per-item public-key wrapped content keys + the
:class:`~repro.dosn.identity.KeyRegistry` out-of-band channel + asynchronous
DHT mailboxes so two peers who are never online simultaneously can still
exchange messages (PeerSoN's headline feature).
"""

from __future__ import annotations

import random as _random
from typing import Dict, List, Optional, Tuple

from repro.crypto import elgamal
from repro.crypto.hashing import hkdf
from repro.crypto.symmetric import AuthenticatedCipher, random_key
from repro.dosn.identity import Identity, KeyRegistry, create_identity
from repro.exceptions import AccessDeniedError, DecryptionError, StorageError
from repro.fabric import Fabric
from repro.overlay.chord import ChordRing
from repro.stack import (AclLayer, ContentItem, LayerSpec, PlacementLayer,
                         ProtectionStack, SystemSpec, register_system)

PEERSON_SPEC = register_system(SystemSpec(
    name="peerson",
    citation="Buchegger et al.",
    overlay="structured control overlay (Chord DHT lookup + storage)",
    layers=(
        LayerSpec("acl", "public-key wrapped content keys",
                  table1_rows=("Public key encryption",),
                  detail="per-item content key, ElGamal-wrapped for each "
                         "friend; keys exchanged out of band "
                         "(Section III-C / IV-A)"),
        LayerSpec("placement", "Chord DHT put",
                  detail="replicated DHT storage; mailboxes enable "
                         "asynchronous delivery"),
    )))


class PeersonNetwork:
    """A PeerSoN deployment: DHT + public-key encryption + DHT mailboxes."""

    def __init__(self, seed: int = 0, replication: int = 2,
                 level: str = "TOY") -> None:
        self.fabric = Fabric.create(seed=seed)
        self.sim = self.fabric.sim
        self.network = self.fabric.network
        self.ring = ChordRing(self.fabric, replication=replication)
        self.registry = KeyRegistry()
        self.level = level
        self.rng = _random.Random(seed)
        self.identities: Dict[str, Identity] = {}
        self.friends: Dict[str, set] = {}
        self._mailbox_counters: Dict[str, int] = {}
        self.stack = ProtectionStack([
            AclLayer(post=self._wrap_for_friends, read=self._unwrap,
                     spec=PEERSON_SPEC.layers[0]),
            PlacementLayer(post=self._dht_put, read=self._dht_get,
                           spec=PEERSON_SPEC.layers[1]),
        ], spec=PEERSON_SPEC, tracer=self.fabric.tracer,
            metrics=self.fabric.metrics)

    # -- membership --------------------------------------------------------------

    def register(self, name: str) -> Identity:
        """Join: create identity, publish public keys out-of-band, join DHT."""
        identity = create_identity(name, self.level,
                                   _random.Random(f"{name}/{self.rng.random()}"))
        self.registry.register(identity)
        self.identities[name] = identity
        self.friends[name] = set()
        self.ring.add_node(name)
        return identity

    def befriend(self, a: str, b: str) -> None:
        """The 'physical meeting': both sides learn authenticated keys."""
        self.friends[a].add(b)
        self.friends[b].add(a)

    # -- stack layer hooks -------------------------------------------------------

    def _wrap_for_friends(self, item: ContentItem) -> None:
        content_key = random_key(32, self.rng)
        wraps: Dict[str, str] = {}
        for friend in sorted(self.friends[item.author]) + [item.author]:
            public = self.registry.get(friend).encryption_key
            wraps[friend] = elgamal.encrypt_bytes(public, content_key,
                                                  self.rng).hex()
        payload = AuthenticatedCipher(content_key).encrypt(item.payload,
                                                           rng=self.rng)
        import json
        item.payload = json.dumps({"wraps": wraps,
                                   "payload": payload.hex()}).encode()

    def _dht_put(self, item: ContentItem) -> None:
        item.cid = f"peerson/{item.author}/{item.meta['item_id']}"
        self.ring.put(item.author, item.cid, item.payload)

    def _dht_get(self, item: ContentItem) -> None:
        item.payload, _ = self.ring.get(item.reader, item.cid)

    def _unwrap(self, item: ContentItem) -> None:
        import json
        record = json.loads(item.payload.decode())
        wrap = record["wraps"].get(item.reader)
        if wrap is None:
            raise AccessDeniedError(
                f"{item.reader!r} has no wrapped key on {item.cid!r}")
        private = self.identities[item.reader].encryption_key
        try:
            content_key = elgamal.decrypt_bytes(private, bytes.fromhex(wrap))
            item.result = AuthenticatedCipher(content_key).decrypt(
                bytes.fromhex(record["payload"]))
        except DecryptionError:
            raise AccessDeniedError(
                f"{item.reader!r} cannot unwrap {item.cid!r}")

    # -- content: public-key wrapped, DHT stored -----------------------------------

    def post(self, author: str, item_id: str, content: bytes) -> str:
        """Encrypt for the author's friends and store under a DHT key."""
        self.ring.build()
        item = ContentItem(author=author, payload=content,
                           meta={"item_id": item_id})
        self.stack.post(item)
        return item.cid

    def read(self, reader: str, dht_key: str) -> bytes:
        """Fetch from the DHT and unwrap with the reader's private key."""
        self.ring.build()
        item = ContentItem(author="", reader=reader, cid=dht_key)
        self.stack.read(item)
        return item.result

    # -- asynchronous messaging through the DHT -------------------------------------

    def send_async(self, sender: str, recipient: str,
                   message: bytes) -> str:
        """Drop an encrypted message into the recipient's DHT mailbox.

        Works while the recipient is offline — the PeerSoN scenario of two
        phones never awake at the same time.
        """
        self.ring.build()
        public = self.registry.get(recipient).encryption_key
        blob = elgamal.encrypt_bytes(public, message, self.rng)
        index = self._mailbox_counters.get(recipient, 0)
        self._mailbox_counters[recipient] = index + 1
        dht_key = f"peerson/mailbox/{recipient}/{index}"
        self.ring.put(sender, dht_key, blob)
        return dht_key

    def fetch_mailbox(self, owner: str) -> List[bytes]:
        """Drain every pending mailbox entry (decrypting locally)."""
        self.ring.build()
        private = self.identities[owner].encryption_key
        messages: List[bytes] = []
        for index in range(self._mailbox_counters.get(owner, 0)):
            dht_key = f"peerson/mailbox/{owner}/{index}"
            try:
                blob, _ = self.ring.get(owner, dht_key)
            except StorageError:
                continue
            messages.append(elgamal.decrypt_bytes(private, blob))
        return messages

    def go_offline(self, name: str) -> None:
        """Take a peer down (its DHT node too)."""
        self.ring.nodes[name].online = False

    def go_online(self, name: str) -> None:
        """Bring a peer back."""
        self.ring.nodes[name].online = True
