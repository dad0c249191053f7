//! The engine model check (`common/model.rs`) over the whole registry:
//! each case draws one tuning (maintenance off or paced, cache budget,
//! codec level, queue depth) and one op sequence and holds every
//! registered engine to the same `BTreeMap` model, so an engine that
//! registers is checked like the built-ins.

use proptest::prelude::*;

mod common;
use common::engines;
use common::model::{check, ops, tuning};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every registered engine gives the model's answers under the same
    /// tuning and ops.
    #[test]
    fn every_engine_matches_the_model(tuning in tuning(), ops in ops()) {
        for kind in engines() {
            check(kind, &tuning, &ops)?;
        }
    }
}
