//! The federated dataset schema: records tagged with the user and silo they belong to.

use serde::{Deserialize, Serialize};
use uldp_ml::Sample;

/// Identifier of a user (shared across silos after record linkage, paper §3.1).
pub type UserId = usize;

/// Identifier of a silo.
pub type SiloId = usize;

/// One training record together with its owner and hosting silo.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FederatedRecord {
    /// The record content.
    pub sample: Sample,
    /// The user this record belongs to.
    pub user: UserId,
    /// The silo holding this record.
    pub silo: SiloId,
}

/// A cross-silo federated dataset: training records spread over silos and users, plus a
/// centralized held-out test set used only for evaluation.
///
/// Built only through [`FederatedDataset::new`], which validates the records and indexes
/// them by `(silo, user)`; the records are read-only afterwards so the index stays valid.
#[derive(Clone, Debug, Serialize)]
pub struct FederatedDataset {
    /// Number of silos `|S|`.
    pub num_silos: usize,
    /// Number of users `|U|`.
    pub num_users: usize,
    /// Training records.
    records: Vec<FederatedRecord>,
    /// The records' `(silo, user)` index, answering the per-user queries.
    index: SiloUserIndex,
    /// Held-out evaluation records.
    pub test: Vec<Sample>,
    /// Human-readable dataset name (used in logs and benchmark output).
    pub name: String,
}

/// One user's records in one silo: `positions[start..end]` of a [`SiloUserIndex`].
#[derive(Clone, Debug, Serialize)]
struct UserRange {
    user: u32,
    start: u32,
    end: u32,
}

/// Record positions grouped by `(silo, user)`. Memory is O(records + silos): only the
/// `(silo, user)` pairs that hold records get a range, never a dense `|S|·|U|` table.
#[derive(Clone, Debug, Serialize)]
struct SiloUserIndex {
    /// Record positions sorted by `(silo, user)`, in record order inside each group.
    positions: Vec<u32>,
    /// Per silo, the ranges of the users present in it, sorted by user.
    rows: Vec<Vec<UserRange>>,
}

impl SiloUserIndex {
    /// Builds the index with one stable sort: O(records · log records).
    fn build(records: &[FederatedRecord], num_silos: usize) -> Self {
        let key = |&i: &u32| {
            let r = &records[i as usize];
            (r.silo, r.user)
        };
        let mut positions: Vec<u32> = (0..records.len() as u32).collect();
        positions.sort_by_key(key);
        let mut rows = vec![Vec::new(); num_silos];
        let mut start = 0;
        for group in positions.chunk_by(|a, b| key(a) == key(b)) {
            let (silo, user) = key(&group[0]);
            let end = start + group.len();
            rows[silo].push(UserRange { user: user as u32, start: start as u32, end: end as u32 });
            start = end;
        }
        SiloUserIndex { positions, rows }
    }
}

impl FederatedDataset {
    /// Creates a dataset, verifying that every record points to a valid user and silo and
    /// that every training record and test sample has the same feature dimension, then
    /// indexes the records by `(silo, user)`.
    pub fn new(
        name: impl Into<String>,
        num_silos: usize,
        num_users: usize,
        records: Vec<FederatedRecord>,
        test: Vec<Sample>,
    ) -> Self {
        assert!(num_silos >= 1 && num_users >= 1);
        assert!(
            records.len() <= u32::MAX as usize && num_users <= u32::MAX as usize,
            "the (silo, user) index addresses records and users with u32"
        );
        let dim = records
            .first()
            .map(|r| r.sample.dim())
            .or_else(|| test.first().map(Sample::dim))
            .unwrap_or(0);
        for (i, r) in records.iter().enumerate() {
            assert!(r.silo < num_silos, "record references silo {} >= {num_silos}", r.silo);
            assert!(r.user < num_users, "record references user {} >= {num_users}", r.user);
            let d = r.sample.dim();
            assert!(d == dim, "record {i} has {d} features, expected {dim}");
        }
        for (i, s) in test.iter().enumerate() {
            let d = s.dim();
            assert!(d == dim, "test sample {i} has {d} features, expected {dim}");
        }
        let index = SiloUserIndex::build(&records, num_silos);
        FederatedDataset { num_silos, num_users, records, index, test, name: name.into() }
    }

    /// The training records, in the order they were given to [`FederatedDataset::new`].
    pub fn records(&self) -> &[FederatedRecord] {
        &self.records
    }

    /// Number of training records.
    pub fn num_records(&self) -> usize {
        self.records.len()
    }

    /// Average number of records per user (the `n` reported in the figures' captions).
    pub fn avg_records_per_user(&self) -> f64 {
        self.records.len() as f64 / self.num_users as f64
    }

    /// All records held by silo `s`.
    pub fn silo_records(&self, silo: SiloId) -> Vec<&FederatedRecord> {
        self.records.iter().filter(|r| r.silo == silo).collect()
    }

    /// All of user `u`'s records held by silo `s` (the per-user dataset `D_{s,u}`), in
    /// record order. A binary search in the silo's row of the index plus a walk of the
    /// user's range: O(log users-in-silo + n_{s,u}).
    ///
    /// Panics if `silo` or `user` is out of range.
    pub fn silo_user_records(&self, silo: SiloId, user: UserId) -> Vec<&Sample> {
        assert!(user < self.num_users, "query references user {user} >= {}", self.num_users);
        let row = self.silo_row(silo);
        match row.binary_search_by_key(&(user as u32), |g| g.user) {
            Ok(g) => self.index.positions[row[g].start as usize..row[g].end as usize]
                .iter()
                .map(|&i| &self.records[i as usize].sample)
                .collect(),
            Err(_) => Vec::new(),
        }
    }

    /// The index row of silo `s`; panics if `silo` is out of range.
    fn silo_row(&self, silo: SiloId) -> &[UserRange] {
        assert!(silo < self.num_silos, "query references silo {silo} >= {}", self.num_silos);
        &self.index.rows[silo]
    }

    /// The per-silo, per-user record-count histogram `n_{s,u}`, indexed `[silo][user]`.
    pub fn histogram(&self) -> Vec<Vec<usize>> {
        let mut h = vec![vec![0usize; self.num_users]; self.num_silos];
        for r in &self.records {
            h[r.silo][r.user] += 1;
        }
        h
    }

    /// Total records per user across all silos (`N_u = Σ_s n_{s,u}`).
    pub fn user_totals(&self) -> Vec<usize> {
        let mut totals = vec![0usize; self.num_users];
        for r in &self.records {
            totals[r.user] += 1;
        }
        totals
    }

    /// The maximum number of records any single user holds across all silos.
    pub fn max_records_per_user(&self) -> usize {
        self.user_totals().into_iter().max().unwrap_or(0)
    }

    /// The median number of records per user across all silos (users with zero records
    /// included). Used by the ULDP-GROUP-median baseline.
    pub fn median_records_per_user(&self) -> usize {
        let mut totals = self.user_totals();
        totals.sort_unstable();
        if totals.is_empty() {
            0
        } else {
            totals[totals.len() / 2]
        }
    }

    /// Users that have at least one record in silo `s`, in increasing order.
    ///
    /// Panics if `silo` is out of range.
    pub fn users_in_silo(&self, silo: SiloId) -> Vec<UserId> {
        self.silo_row(silo).iter().map(|g| g.user as UserId).collect()
    }

    /// Feature dimensionality (taken from the first record; panics on an empty dataset).
    pub fn feature_dim(&self) -> usize {
        self.records
            .first()
            .map(|r| r.sample.dim())
            .or_else(|| self.test.first().map(|s| s.dim()))
            .expect("dataset has no records")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use uldp_ml::Sample;

    /// Reference for [`FederatedDataset::silo_user_records`]: a scan of every record.
    fn scan_silo_user_records(d: &FederatedDataset, silo: SiloId, user: UserId) -> Vec<&Sample> {
        d.records().iter().filter(|r| r.silo == silo && r.user == user).map(|r| &r.sample).collect()
    }

    /// Reference for [`FederatedDataset::users_in_silo`]: a scan of every record.
    fn scan_users_in_silo(d: &FederatedDataset, silo: SiloId) -> Vec<UserId> {
        let mut users: Vec<UserId> =
            d.records().iter().filter(|r| r.silo == silo).map(|r| r.user).collect();
        users.sort_unstable();
        users.dedup();
        users
    }

    /// The first `(silo, user)` whose indexed answers differ from the references. Records
    /// are compared by address, so the order inside each group is checked too.
    fn first_mismatch(d: &FederatedDataset) -> Option<(SiloId, UserId)> {
        (0..d.num_silos).flat_map(|s| (0..d.num_users).map(move |u| (s, u))).find(|&(s, u)| {
            let got = d.silo_user_records(s, u);
            let want = scan_silo_user_records(d, s, u);
            d.users_in_silo(s) != scan_users_in_silo(d, s)
                || got.len() != want.len()
                || got.iter().zip(&want).any(|(a, b)| !std::ptr::eq(*a, *b))
        })
    }

    /// A federation with one 1-feature record per `(silo, user)` placement, in the given
    /// order; record `i` has feature `i`.
    fn federation(
        num_silos: usize,
        num_users: usize,
        placed: &[(SiloId, UserId)],
    ) -> FederatedDataset {
        let records = placed
            .iter()
            .enumerate()
            .map(|(i, &(silo, user))| FederatedRecord {
                sample: Sample::classification(vec![i as f64], i % 2),
                user,
                silo,
            })
            .collect();
        FederatedDataset::new("placed", num_silos, num_users, records, vec![])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn index_matches_linear_scan(
            num_silos in 1usize..6,
            num_users in 1usize..12,
            raw in proptest::collection::vec((0usize..1000, 0usize..1000), 0..80),
        ) {
            let placed: Vec<(SiloId, UserId)> =
                raw.iter().map(|&(s, u)| (s % num_silos, u % num_users)).collect();
            let d = federation(num_silos, num_users, &placed);
            prop_assert_eq!(first_mismatch(&d), None);
        }
    }

    #[test]
    fn index_covers_empty_silos_absent_users_and_interleaving() {
        // Silo 2 holds nothing, user 3 holds nothing, and (1, 0)'s records are split by
        // records of other pairs.
        let placed = [(1, 0), (0, 2), (1, 1), (1, 0), (0, 0), (1, 0), (0, 2)];
        let d = federation(3, 4, &placed);
        assert_eq!(first_mismatch(&d), None);
        assert!(d.users_in_silo(2).is_empty());
        assert_eq!(d.users_in_silo(1), vec![0, 1]);
        let features = |s, u| -> Vec<f64> {
            d.silo_user_records(s, u).iter().map(|x| x.features[0]).collect()
        };
        assert_eq!(features(1, 0), vec![0.0, 3.0, 5.0]);
        assert_eq!(features(0, 2), vec![1.0, 6.0]);
        assert!(features(0, 3).is_empty() && features(2, 0).is_empty());
        assert_eq!(first_mismatch(&federation(2, 2, &[])), None);
    }

    #[test]
    #[should_panic(expected = "query references silo 2 >= 2")]
    fn silo_user_records_rejects_out_of_range_silo() {
        tiny().silo_user_records(2, 0);
    }

    #[test]
    #[should_panic(expected = "query references user 3 >= 3")]
    fn silo_user_records_rejects_out_of_range_user() {
        tiny().silo_user_records(0, 3);
    }

    #[test]
    #[should_panic(expected = "query references silo 5 >= 2")]
    fn users_in_silo_rejects_out_of_range_silo() {
        tiny().users_in_silo(5);
    }

    #[test]
    #[should_panic(expected = "record 2 has 2 features, expected 1")]
    fn rejects_mismatched_record_dimension() {
        let mut placed = federation(1, 1, &[(0, 0), (0, 0), (0, 0)]).records;
        placed[2].sample = Sample::classification(vec![1.0, 2.0], 0);
        FederatedDataset::new("bad", 1, 1, placed, vec![]);
    }

    #[test]
    #[should_panic(expected = "test sample 1 has 3 features, expected 1")]
    fn rejects_mismatched_test_dimension() {
        let test = vec![
            Sample::classification(vec![0.0], 0),
            Sample::classification(vec![0.0, 1.0, 2.0], 1),
        ];
        FederatedDataset::new("bad", 1, 1, federation(1, 1, &[(0, 0)]).records, test);
    }

    fn tiny() -> FederatedDataset {
        let records = vec![
            FederatedRecord { sample: Sample::classification(vec![1.0], 0), user: 0, silo: 0 },
            FederatedRecord { sample: Sample::classification(vec![2.0], 1), user: 0, silo: 1 },
            FederatedRecord { sample: Sample::classification(vec![3.0], 0), user: 1, silo: 1 },
            FederatedRecord { sample: Sample::classification(vec![4.0], 1), user: 1, silo: 1 },
            FederatedRecord { sample: Sample::classification(vec![5.0], 0), user: 2, silo: 0 },
        ];
        FederatedDataset::new("tiny", 2, 3, records, vec![Sample::classification(vec![0.0], 0)])
    }

    #[test]
    fn histogram_and_totals() {
        let d = tiny();
        let h = d.histogram();
        assert_eq!(h[0], vec![1, 0, 1]);
        assert_eq!(h[1], vec![1, 2, 0]);
        assert_eq!(d.user_totals(), vec![2, 2, 1]);
        assert_eq!(d.max_records_per_user(), 2);
        assert_eq!(d.median_records_per_user(), 2);
        assert_eq!(d.num_records(), 5);
        assert!((d.avg_records_per_user() - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn silo_queries() {
        let d = tiny();
        assert_eq!(d.silo_records(0).len(), 2);
        assert_eq!(d.silo_records(1).len(), 3);
        assert_eq!(d.silo_user_records(1, 1).len(), 2);
        assert_eq!(d.silo_user_records(0, 1).len(), 0);
        assert_eq!(d.users_in_silo(0), vec![0, 2]);
        assert_eq!(d.users_in_silo(1), vec![0, 1]);
        assert_eq!(d.feature_dim(), 1);
    }

    #[test]
    #[should_panic(expected = "references silo")]
    fn rejects_out_of_range_silo() {
        let records = vec![FederatedRecord {
            sample: Sample::classification(vec![1.0], 0),
            user: 0,
            silo: 5,
        }];
        FederatedDataset::new("bad", 2, 1, records, vec![]);
    }
}
