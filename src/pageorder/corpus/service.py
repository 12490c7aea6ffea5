"""Client for a remote embedding service.

POST {endpoint}/embed with {"texts": [...]} returning
{"embeddings": [[...], ...]}. Requests are batched; transient server
failures are retried with backoff; results are all-or-nothing.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import numpy as np

__all__ = [
    "EmbedServiceError",
    "AuthError",
    "DimensionMismatchError",
    "TransportError",
    "fetch_embeddings",
]


class EmbedServiceError(RuntimeError):
    """Base class for embedding-service failures."""


class AuthError(EmbedServiceError):
    """The service rejected the provided credentials."""


class DimensionMismatchError(EmbedServiceError):
    """The service returned embeddings of an unexpected dimension."""


class TransportError(EmbedServiceError):
    """The service stayed unreachable or kept failing after retries."""


def _post_batch(endpoint: str, texts: list[str], credentials: str | None, timeout: float) -> list[list[float]]:
    body = json.dumps({"texts": texts}).encode("utf-8")
    request = urllib.request.Request(
        endpoint.rstrip("/") + "/embed",
        data=body,
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    if credentials:
        request.add_header("Authorization", f"Bearer {credentials}")
    with urllib.request.urlopen(request, timeout=timeout) as response:
        body = response.read()
    try:
        payload = json.loads(body.decode("utf-8"))
    except ValueError as exc:  # invalid UTF-8 or invalid JSON
        raise TransportError(f"service response is not JSON: {exc}") from exc
    if not isinstance(payload, dict) or not isinstance(payload.get("embeddings"), list):
        raise TransportError("service response is not a JSON object holding an embeddings array")
    embeddings = payload["embeddings"]
    if len(embeddings) != len(texts):
        raise TransportError(f"service returned {len(embeddings)} embeddings for {len(texts)} texts")
    return embeddings


def fetch_embeddings(
    texts: list[str],
    endpoint: str,
    credentials: str | None = None,
    *,
    expected_dim: int | None = None,
    batch_size: int = 64,
    max_retries: int = 3,
    backoff: float = 0.25,
    timeout: float = 30.0,
) -> list[np.ndarray]:
    """Embed texts via the service; one embedding per text, all or nothing.

    Transient failures (HTTP 5xx, connection errors) are retried
    ``max_retries`` times per batch with exponential backoff. Client
    errors are not retried: 401/403 raise AuthError, anything else
    TransportError. Every returned vector must be finite, non-empty and
    share one dimension, matching ``expected_dim`` when given.
    """
    if not texts:
        return []
    collected: list[np.ndarray] = []
    dim = expected_dim
    for start in range(0, len(texts), batch_size):
        batch = texts[start : start + batch_size]
        attempt = 0
        while True:
            try:
                rows = _post_batch(endpoint, batch, credentials, timeout)
                break
            except urllib.error.HTTPError as exc:
                if exc.code in (401, 403):
                    raise AuthError(f"service rejected credentials (HTTP {exc.code})") from exc
                if exc.code >= 500 and attempt < max_retries:
                    attempt += 1
                    time.sleep(backoff * (2.0 ** (attempt - 1)))
                    continue
                raise TransportError(f"HTTP {exc.code} from embedding service") from exc
            except (urllib.error.URLError, TimeoutError) as exc:
                if attempt < max_retries:
                    attempt += 1
                    time.sleep(backoff * (2.0 ** (attempt - 1)))
                    continue
                raise TransportError(f"embedding service unreachable: {exc}") from exc
        for row in rows:
            with np.errstate(over="ignore"):  # a value beyond float32 becomes inf, rejected below
                vector = np.asarray(row, dtype=np.float32)
            if vector.ndim != 1 or vector.shape[0] == 0:
                raise DimensionMismatchError(f"embedding is not a non-empty flat vector: shape {vector.shape}")
            if not np.isfinite(vector).all():
                raise EmbedServiceError("embedding holds a non-finite value")
            if dim is None:
                dim = vector.shape[0]
            if vector.shape[0] != dim:
                raise DimensionMismatchError(f"expected dimension {dim}, got {vector.shape[0]}")
            collected.append(vector)
    return collected
