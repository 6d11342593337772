"""Fitted-state capture and restore for ``repro.ml`` estimators.

Every estimator the :class:`~repro.core.model.DramErrorModel` pipelines
can contain is described by a :class:`_EstimatorCodec`: which
constructor parameters are plain JSON values, which are arrays, and
which *fitted* attributes must be persisted for ``predict`` to
reproduce its output bit-identically.  :func:`capture_estimator` splits
an estimator into a JSON-able spec plus a flat ``{key: ndarray}``
mapping (stored in one ``.npz`` by the registry);
:func:`restore_estimator` rebuilds the estimator from the pair.

The persisted state is deliberately the *prediction* state, not the
training state: a restored SVR carries support coefficients but no
optimizer state, so it predicts bit-identically but cannot resume
training.  Trees and forests have no other state than their flat node
arrays, so a restored tree or forest is the fitted estimator again: it
predicts bit-identically and answers ``depth()``/``node_count()`` (and,
for a forest, ``estimators_``) as the original does.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple, Type

import numpy as np

from repro.errors import NotFittedError, RegistryError
from repro.ml.forest import RandomForestRegressor
from repro.ml.knn import KNeighborsRegressor
from repro.ml.pipeline import Pipeline
from repro.ml.scaling import (
    ColumnLogTransformer,
    ColumnWeightTransformer,
    MinMaxScaler,
    StandardScaler,
)
from repro.ml.svm import SVR
from repro.ml.tree import DecisionTreeRegressor

#: A JSON-able estimator description (see :func:`capture_estimator`).
EstimatorSpec = Dict[str, Any]

#: Flat array payload accompanying a spec; keys are ``<prefix>/<attr>``.
ArrayPayload = Dict[str, np.ndarray]


@dataclass(frozen=True)
class _EstimatorCodec:
    """Persistence description of one estimator class."""

    cls: Type[Any]
    #: constructor parameters stored as arrays (everything else is JSON)
    array_params: Tuple[str, ...] = ()
    #: fitted attributes stored as arrays
    fitted_arrays: Tuple[str, ...] = ()
    #: fitted attributes stored as JSON scalars (exact: json floats
    #: round-trip via shortest-repr)
    fitted_scalars: Tuple[str, ...] = ()


_CODECS: Dict[str, _EstimatorCodec] = {
    codec.cls.__name__: codec
    for codec in (
        _EstimatorCodec(StandardScaler, fitted_arrays=("mean_", "scale_")),
        _EstimatorCodec(MinMaxScaler, fitted_arrays=("min_", "range_")),
        _EstimatorCodec(ColumnLogTransformer),
        _EstimatorCodec(ColumnWeightTransformer, array_params=("weights",)),
        _EstimatorCodec(KNeighborsRegressor, fitted_arrays=("X_train_", "y_train_")),
        _EstimatorCodec(
            SVR,
            fitted_arrays=("X_train_", "beta_", "support_"),
            fitted_scalars=("intercept_", "gamma_", "n_iter_"),
        ),
        _EstimatorCodec(
            DecisionTreeRegressor,
            fitted_arrays=(
                "feature_", "threshold_", "children_left_",
                "children_right_", "value_",
            ),
            fitted_scalars=("n_features_",),
        ),
        _EstimatorCodec(
            RandomForestRegressor,
            fitted_arrays=(
                "_roots_", "_feature_", "_threshold_", "_left_", "_right_",
                "_value_",
            ),
            fitted_scalars=("n_features_",),
        ),
    )
}


def _json_safe(value: Any, context: str) -> Any:
    """Coerce a constructor parameter to a JSON-representable value."""
    if isinstance(value, (np.integer, np.floating, np.bool_)):
        value = value.item()
    if isinstance(value, tuple):
        value = list(value)
    if isinstance(value, list):
        return [_json_safe(item, context) for item in value]
    try:
        json.dumps(value)
    except (TypeError, ValueError):
        raise RegistryError(
            f"{context}: parameter value {value!r} is not JSON-serializable"
        ) from None
    return value


def _fitted_attr(estimator: Any, attribute: str) -> Any:
    try:
        return getattr(estimator, attribute)
    except AttributeError:
        raise NotFittedError(
            f"cannot persist unfitted {type(estimator).__name__} "
            f"(missing {attribute!r})"
        ) from None


def capture_estimator(
    estimator: Any, prefix: str, arrays: ArrayPayload
) -> EstimatorSpec:
    """Split a fitted estimator into a JSON spec + array entries.

    ``arrays`` is filled in place under ``<prefix>/...`` keys;
    pipelines recurse with the step name appended to the prefix.
    """
    if isinstance(estimator, Pipeline):
        steps: List[Dict[str, Any]] = []
        for name, step in estimator.steps:
            steps.append({
                "name": name,
                "estimator": capture_estimator(step, f"{prefix}/{name}", arrays),
            })
        return {"type": "Pipeline", "steps": steps}

    codec = _CODECS.get(type(estimator).__name__)
    if codec is None or not isinstance(estimator, codec.cls):
        raise RegistryError(
            f"no serialization codec for estimator type "
            f"{type(estimator).__name__!r}"
        )
    params = dict(estimator.get_params())
    for name in codec.array_params:
        arrays[f"{prefix}/param/{name}"] = np.asarray(params.pop(name))
    spec: EstimatorSpec = {
        "type": type(estimator).__name__,
        "params": {
            name: _json_safe(value, f"{type(estimator).__name__}.{name}")
            for name, value in params.items()
        },
    }
    for name in codec.fitted_arrays:
        arrays[f"{prefix}/{name}"] = np.asarray(_fitted_attr(estimator, name))
    if codec.fitted_scalars:
        spec["fitted_scalars"] = {
            name: _json_safe(
                _fitted_attr(estimator, name), f"{type(estimator).__name__}.{name}"
            )
            for name in codec.fitted_scalars
        }
    return spec


def _array_for(arrays: ArrayPayload, key: str, context: str) -> np.ndarray:
    try:
        return arrays[key]
    except KeyError:
        raise RegistryError(
            f"{context}: bundle is missing array {key!r} "
            "(corrupted or truncated arrays.npz)"
        ) from None


def restore_estimator(
    spec: EstimatorSpec, prefix: str, arrays: ArrayPayload
) -> Any:
    """Rebuild a fitted estimator from :func:`capture_estimator` output."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise RegistryError(f"malformed estimator spec at {prefix!r}: {spec!r}")
    type_name = spec["type"]
    if type_name == "Pipeline":
        try:
            entries = list(spec["steps"])
        except (KeyError, TypeError):
            raise RegistryError(
                f"malformed Pipeline spec at {prefix!r} (no steps list)"
            ) from None
        steps = [
            (
                entry["name"],
                restore_estimator(
                    entry["estimator"], f"{prefix}/{entry['name']}", arrays
                ),
            )
            for entry in entries
        ]
        pipeline = Pipeline(steps)
        # Only fitted estimators are persisted, so the restored pipeline
        # is fitted by construction.
        pipeline.fitted_ = True
        return pipeline

    codec = _CODECS.get(type_name)
    if codec is None:
        raise RegistryError(f"unknown estimator type {type_name!r} in bundle")
    params = dict(spec.get("params", {}))
    for name in codec.array_params:
        params[name] = _array_for(arrays, f"{prefix}/param/{name}", type_name)
    try:
        estimator = codec.cls(**params)
    except TypeError as error:
        raise RegistryError(
            f"cannot construct {type_name} from bundle parameters: {error}"
        ) from None
    for name in codec.fitted_arrays:
        setattr(estimator, name, _array_for(arrays, f"{prefix}/{name}", type_name))
    scalars = spec.get("fitted_scalars", {})
    for name in codec.fitted_scalars:
        if name not in scalars:
            raise RegistryError(
                f"{type_name}: bundle is missing fitted scalar {name!r}"
            )
        setattr(estimator, name, scalars[name])
    return estimator
