//! The 197-knob configuration catalog mirroring MySQL 5.7.
//!
//! §5.1 of the paper: "There are 197 configuration knobs in MySQL 5.7,
//! except the knobs that do not make sense to tune (e.g., path names)."
//! The catalog contains ~40 knobs with modelled performance semantics (the
//! simulator resolves them by name) and a long tail of real MySQL 5.7
//! variable names whose effect on the simulated response surface is
//! negligible — exactly the needle-in-a-haystack structure knob selection
//! must cope with.
//!
//! Size-valued knobs use explicit units in their modelled semantics:
//! `*_size` knobs named below are in **MB** or **KB** as documented on each
//! entry (the simulator reads them accordingly).

use crate::hardware::Hardware;
use crate::knob::KnobSpec;
use std::collections::BTreeMap;

/// The full knob catalog with name-based lookup.
///
/// The name index is a `BTreeMap` so any traversal of it (diagnostics,
/// serialization, future iteration) is in sorted name order by
/// construction — the D1 ban in `clippy.toml` keeps hash maps out of
/// first-party code outside the telemetry crate.
#[derive(Clone, Debug)]
pub struct KnobCatalog {
    specs: Vec<KnobSpec>,
    by_name: BTreeMap<&'static str, usize>,
}

/// Number of knobs in the catalog (matches MySQL 5.7 per §5.1).
pub const N_KNOBS: usize = 197;

impl KnobCatalog {
    /// Builds the MySQL 5.7 catalog.
    pub fn mysql57() -> Self {
        let mut specs = semantic_knobs();
        specs.extend(filler_knobs());
        let by_name = specs.iter().enumerate().map(|(i, s)| (s.name, i)).collect();
        let cat = Self { specs, by_name };
        debug_assert_eq!(cat.len(), N_KNOBS, "catalog size drifted from 197");
        cat
    }

    /// Number of knobs.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// True when the catalog is empty (never, for the stock catalog).
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// All knob specifications, in catalog order.
    pub fn specs(&self) -> &[KnobSpec] {
        &self.specs
    }

    /// Looks a knob up by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.by_name.get(name).copied()
    }

    /// Looks a knob up by name, panicking with the name on failure
    /// (internal wiring errors should be loud).
    pub fn expect_index(&self, name: &str) -> usize {
        self.index_of(name).unwrap_or_else(|| panic!("knob `{name}` missing from catalog"))
    }

    /// The knob spec at `idx`.
    pub fn spec(&self, idx: usize) -> &KnobSpec {
        &self.specs[idx]
    }

    /// The default configuration for a hardware instance.
    ///
    /// Matches the paper's setup (§4.1): stock MySQL defaults except the
    /// buffer pool, which is set to 60% of instance memory.
    pub fn default_config(&self, hw: Hardware) -> Vec<f64> {
        let mut cfg: Vec<f64> = self.specs.iter().map(|s| s.default).collect();
        let bp = self.expect_index("innodb_buffer_pool_size");
        cfg[bp] = self.specs[bp].domain.clamp(hw.ram_mb() * 0.6);
        cfg
    }

    /// Clamps every entry of a raw configuration into its domain.
    pub fn clamp_config(&self, cfg: &mut [f64]) {
        assert_eq!(cfg.len(), self.specs.len());
        for (v, s) in cfg.iter_mut().zip(&self.specs) {
            *v = s.domain.clamp(*v);
        }
    }

    /// Knob names in sorted order (deterministic traversal of the index).
    pub fn names_sorted(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.by_name.keys().copied()
    }

    /// Indices of all categorical knobs.
    pub fn categorical_indices(&self) -> Vec<usize> {
        self.specs
            .iter()
            .enumerate()
            .filter(|(_, s)| s.domain.is_categorical())
            .map(|(i, _)| i)
            .collect()
    }

    /// Indices of all integer knobs.
    pub fn integer_indices(&self) -> Vec<usize> {
        self.specs
            .iter()
            .enumerate()
            .filter(|(_, s)| s.domain.is_integer())
            .map(|(i, _)| i)
            .collect()
    }
}

impl Default for KnobCatalog {
    fn default() -> Self {
        Self::mysql57()
    }
}

/// Knobs with modelled performance semantics. The simulator resolves these
/// by name; renaming any of them is a compile-visible change only if the
/// `sim::Idx` wiring test is run — keep names in sync with `sim.rs`.
fn semantic_knobs() -> Vec<KnobSpec> {
    vec![
        // -- memory & caching ------------------------------------------------
        // Buffer pool size in MB. Stock default is tiny; `default_config`
        // raises it to 60% of RAM per the paper's setup.
        KnobSpec::int("innodb_buffer_pool_size", 128, 131_072, true, 128),
        KnobSpec::int("innodb_buffer_pool_instances", 1, 64, false, 8),
        KnobSpec::int("innodb_old_blocks_pct", 5, 95, false, 37),
        KnobSpec::int("innodb_lru_scan_depth", 100, 16_384, true, 1024),
        KnobSpec::cat("innodb_adaptive_hash_index", vec!["OFF", "ON"], 1),
        KnobSpec::cat(
            "innodb_change_buffering",
            vec!["none", "inserts", "deletes", "changes", "purges", "all"],
            5,
        ),
        // -- redo/undo & durability -------------------------------------------
        // Log file size in MB.
        KnobSpec::int("innodb_log_file_size", 4, 8192, true, 48),
        // Log buffer size in MB.
        KnobSpec::int("innodb_log_buffer_size", 1, 1024, true, 16),
        KnobSpec::cat("innodb_flush_log_at_trx_commit", vec!["0", "1", "2"], 1),
        KnobSpec::int("sync_binlog", 0, 1000, false, 1),
        KnobSpec::cat("innodb_doublewrite", vec!["OFF", "ON"], 1),
        KnobSpec::cat("innodb_adaptive_flushing", vec!["OFF", "ON"], 1),
        KnobSpec::int("innodb_max_dirty_pages_pct", 1, 99, false, 75),
        // -- I/O ---------------------------------------------------------------
        KnobSpec::cat(
            "innodb_flush_method",
            vec!["fsync", "O_DSYNC", "O_DIRECT", "O_DIRECT_NO_FSYNC"],
            0,
        ),
        KnobSpec::cat("innodb_flush_neighbors", vec!["0", "1", "2"], 1),
        KnobSpec::int("innodb_io_capacity", 100, 40_000, true, 200),
        KnobSpec::int("innodb_io_capacity_max", 100, 80_000, true, 2000),
        KnobSpec::int("innodb_read_io_threads", 1, 64, false, 4),
        KnobSpec::int("innodb_write_io_threads", 1, 64, false, 4),
        // -- concurrency --------------------------------------------------------
        KnobSpec::int("innodb_thread_concurrency", 0, 512, false, 0),
        KnobSpec::int("innodb_purge_threads", 1, 32, false, 4),
        KnobSpec::int("innodb_page_cleaners", 1, 64, false, 4),
        KnobSpec::int("innodb_spin_wait_delay", 0, 200, false, 6),
        KnobSpec::int("innodb_sync_spin_loops", 0, 200, false, 30),
        KnobSpec::int("innodb_concurrency_tickets", 1, 50_000, true, 5000),
        KnobSpec::int("max_connections", 10, 10_000, true, 151),
        KnobSpec::int("thread_cache_size", 0, 1000, false, 9),
        KnobSpec::int("table_open_cache", 64, 16_384, true, 2000),
        // -- per-session buffers (KB unless noted) ------------------------------
        // Temp table sizes in MB.
        KnobSpec::int("tmp_table_size", 1, 2048, true, 16),
        KnobSpec::int("max_heap_table_size", 1, 2048, true, 16),
        // Sort/join/read buffers in KB.
        KnobSpec::int("sort_buffer_size", 32, 65_536, true, 256),
        KnobSpec::int("join_buffer_size", 32, 262_144, true, 256),
        KnobSpec::int("read_buffer_size", 8, 16_384, true, 128),
        KnobSpec::int("read_rnd_buffer_size", 8, 16_384, true, 256),
        // Binlog cache in KB.
        KnobSpec::int("binlog_cache_size", 4, 16_384, true, 32),
        // InnoDB sort buffer in MB.
        KnobSpec::int("innodb_sort_buffer_size", 1, 64, true, 1),
        // -- query cache ---------------------------------------------------------
        KnobSpec::cat("query_cache_type", vec!["OFF", "ON", "DEMAND"], 0),
        // Query cache size in MB.
        KnobSpec::int("query_cache_size", 1, 4096, true, 1),
        // -- optimizer / statistics ----------------------------------------------
        KnobSpec::int("innodb_stats_persistent_sample_pages", 1, 1024, true, 20),
        KnobSpec::int("optimizer_search_depth", 0, 62, false, 62),
    ]
}

/// Compact filler-knob descriptor.
enum F {
    /// Boolean (OFF/ON categorical) with default index.
    B(usize),
    /// Linear integer `(lo, hi, default)`.
    I(i64, i64, i64),
    /// Log-scale integer `(lo, hi, default)`.
    L(i64, i64, i64),
    /// Categorical with option list and default index.
    C(&'static [&'static str], usize),
}

/// The long tail: 157 real MySQL 5.7 variables with negligible simulated
/// effect. Their presence forces knob selection to find the ~40 needles.
fn filler_knobs() -> Vec<KnobSpec> {
    use F::*;
    const FILLER: &[(&str, F)] = &[
        ("autocommit", B(1)),
        ("automatic_sp_privileges", B(1)),
        ("back_log", L(1, 65_535, 80)),
        ("big_tables", B(0)),
        ("binlog_checksum", C(&["NONE", "CRC32"], 1)),
        ("binlog_direct_non_transactional_updates", B(0)),
        ("binlog_error_action", C(&["IGNORE_ERROR", "ABORT_SERVER"], 1)),
        ("binlog_format", C(&["ROW", "STATEMENT", "MIXED"], 0)),
        ("binlog_group_commit_sync_delay", I(0, 1_000_000, 0)),
        ("binlog_group_commit_sync_no_delay_count", I(0, 100_000, 0)),
        ("binlog_max_flush_queue_time", I(0, 100_000, 0)),
        ("binlog_order_commits", B(1)),
        ("binlog_row_image", C(&["FULL", "MINIMAL", "NOBLOB"], 0)),
        ("binlog_rows_query_log_events", B(0)),
        ("binlog_stmt_cache_size", L(4096, 16_777_216, 32_768)),
        ("bulk_insert_buffer_size", L(1024, 268_435_456, 8_388_608)),
        ("completion_type", C(&["NO_CHAIN", "CHAIN", "RELEASE"], 0)),
        ("concurrent_insert", C(&["NEVER", "AUTO", "ALWAYS"], 1)),
        ("connect_timeout", I(2, 3600, 10)),
        ("default_week_format", I(0, 7, 0)),
        ("delay_key_write", C(&["OFF", "ON", "ALL"], 1)),
        ("delayed_insert_limit", L(1, 1_000_000, 100)),
        ("delayed_insert_timeout", I(1, 3600, 300)),
        ("delayed_queue_size", L(1, 1_000_000, 1000)),
        ("div_precision_increment", I(0, 30, 4)),
        ("end_markers_in_json", B(0)),
        ("eq_range_index_dive_limit", I(0, 1000, 200)),
        ("expire_logs_days", I(0, 99, 0)),
        ("flush", B(0)),
        ("flush_time", I(0, 3600, 0)),
        ("ft_max_word_len", I(10, 84, 84)),
        ("ft_min_word_len", I(1, 10, 4)),
        ("ft_query_expansion_limit", I(0, 1000, 20)),
        ("general_log", B(0)),
        ("group_concat_max_len", L(4, 16_777_216, 1024)),
        ("host_cache_size", I(0, 65_536, 279)),
        ("interactive_timeout", I(1, 86_400, 28_800)),
        ("key_buffer_size", L(8, 4096, 8)),
        ("key_cache_age_threshold", I(100, 100_000, 300)),
        ("key_cache_block_size", L(512, 16_384, 1024)),
        ("key_cache_division_limit", I(1, 100, 100)),
        ("local_infile", B(1)),
        ("lock_wait_timeout", I(1, 31_536_000, 31_536_000)),
        ("log_bin_trust_function_creators", B(0)),
        ("log_error_verbosity", I(1, 3, 3)),
        ("log_queries_not_using_indexes", B(0)),
        ("log_slow_admin_statements", B(0)),
        ("log_slow_slave_statements", B(0)),
        ("log_throttle_queries_not_using_indexes", I(0, 1000, 0)),
        ("log_warnings", I(0, 2, 2)),
        ("long_query_time", I(0, 3600, 10)),
        ("low_priority_updates", B(0)),
        ("master_verify_checksum", B(0)),
        ("max_allowed_packet", L(1024, 1_073_741_824, 4_194_304)),
        ("max_binlog_cache_size", L(4096, 4_294_967_296, 4_294_967_296)),
        ("max_binlog_size", L(4096, 1_073_741_824, 1_073_741_824)),
        ("max_binlog_stmt_cache_size", L(4096, 4_294_967_296, 4_294_967_296)),
        ("max_delayed_threads", I(0, 16_384, 20)),
        ("max_digest_length", I(0, 1_048_576, 1024)),
        ("max_error_count", I(0, 65_535, 64)),
        ("max_join_size", L(1, 4_294_967_295, 4_294_967_295)),
        ("max_length_for_sort_data", I(4, 8_388_608, 1024)),
        ("max_points_in_geometry", I(3, 1_048_576, 65_536)),
        ("max_prepared_stmt_count", I(0, 1_048_576, 16_382)),
        ("max_relay_log_size", I(0, 1_073_741_824, 0)),
        ("max_seeks_for_key", L(1, 4_294_967_295, 4_294_967_295)),
        ("max_sort_length", I(4, 8_388_608, 1024)),
        ("max_sp_recursion_depth", I(0, 255, 0)),
        ("max_user_connections", I(0, 100_000, 0)),
        ("max_write_lock_count", L(1, 4_294_967_295, 4_294_967_295)),
        ("metadata_locks_cache_size", I(1, 1_048_576, 1024)),
        ("metadata_locks_hash_instances", I(1, 1024, 8)),
        ("min_examined_row_limit", I(0, 1_000_000, 0)),
        ("multi_range_count", I(1, 65_536, 256)),
        ("myisam_data_pointer_size", I(2, 7, 6)),
        ("myisam_max_sort_file_size", L(1, 1_048_576, 1_048_576)),
        ("myisam_repair_threads", I(1, 64, 1)),
        ("myisam_sort_buffer_size", L(4096, 1_073_741_824, 8_388_608)),
        ("myisam_stats_method", C(&["nulls_unequal", "nulls_equal", "nulls_ignored"], 0)),
        ("myisam_use_mmap", B(0)),
        ("net_buffer_length", L(1024, 1_048_576, 16_384)),
        ("net_read_timeout", I(1, 3600, 30)),
        ("net_retry_count", I(1, 100, 10)),
        ("net_write_timeout", I(1, 3600, 60)),
        ("ngram_token_size", I(1, 10, 2)),
        ("offline_mode", B(0)),
        ("old_alter_table", B(0)),
        ("open_files_limit", L(1024, 1_048_576, 65_535)),
        ("optimizer_prune_level", B(1)),
        ("optimizer_trace_limit", I(0, 100, 1)),
        ("optimizer_trace_max_mem_size", L(1024, 16_777_216, 16_384)),
        ("optimizer_trace_offset", I(-32, 32, -1)),
        ("performance_schema", B(1)),
        ("performance_schema_accounts_size", I(-1, 1_048_576, -1)),
        ("performance_schema_digests_size", I(-1, 1_048_576, -1)),
        ("performance_schema_events_stages_history_long_size", I(-1, 1_048_576, -1)),
        ("performance_schema_events_stages_history_size", I(-1, 1024, -1)),
        ("performance_schema_events_statements_history_long_size", I(-1, 1_048_576, -1)),
        ("performance_schema_events_statements_history_size", I(-1, 1024, -1)),
        ("performance_schema_events_transactions_history_long_size", I(-1, 1_048_576, -1)),
        ("performance_schema_events_transactions_history_size", I(-1, 1024, -1)),
        ("performance_schema_events_waits_history_long_size", I(-1, 1_048_576, -1)),
        ("performance_schema_events_waits_history_size", I(-1, 1024, -1)),
        ("performance_schema_hosts_size", I(-1, 1_048_576, -1)),
        ("performance_schema_max_cond_classes", I(0, 1024, 80)),
        ("performance_schema_max_cond_instances", I(-1, 1_048_576, -1)),
        ("performance_schema_max_digest_length", I(0, 1_048_576, 1024)),
        ("performance_schema_max_file_classes", I(0, 1024, 80)),
        ("performance_schema_max_file_handles", I(0, 1_048_576, 32_768)),
        ("performance_schema_max_file_instances", I(-1, 1_048_576, -1)),
        ("performance_schema_max_index_stat", I(-1, 1_048_576, -1)),
        ("performance_schema_max_memory_classes", I(0, 1024, 320)),
        ("performance_schema_max_metadata_locks", I(-1, 10_485_760, -1)),
        ("performance_schema_max_mutex_classes", I(0, 1024, 200)),
        ("performance_schema_max_mutex_instances", I(-1, 104_857_600, -1)),
        ("performance_schema_max_prepared_statements_instances", I(-1, 1_048_576, -1)),
        ("performance_schema_max_program_instances", I(-1, 1_048_576, -1)),
        ("performance_schema_max_rwlock_classes", I(0, 1024, 40)),
        ("performance_schema_max_rwlock_instances", I(-1, 104_857_600, -1)),
        ("performance_schema_max_socket_classes", I(0, 1024, 10)),
        ("performance_schema_max_socket_instances", I(-1, 1_048_576, -1)),
        ("performance_schema_max_sql_text_length", I(0, 1_048_576, 1024)),
        ("performance_schema_max_stage_classes", I(0, 1024, 150)),
        ("performance_schema_max_statement_classes", I(0, 1024, 192)),
        ("performance_schema_max_statement_stack", I(1, 256, 10)),
        ("performance_schema_max_table_handles", I(-1, 1_048_576, -1)),
        ("performance_schema_max_table_instances", I(-1, 1_048_576, -1)),
        ("performance_schema_max_table_lock_stat", I(-1, 1_048_576, -1)),
        ("performance_schema_max_thread_classes", I(0, 1024, 50)),
        ("performance_schema_max_thread_instances", I(-1, 1_048_576, -1)),
        ("performance_schema_session_connect_attrs_size", I(-1, 1_048_576, 512)),
        ("performance_schema_setup_actors_size", I(-1, 1024, -1)),
        ("performance_schema_setup_objects_size", I(-1, 1_048_576, -1)),
        ("performance_schema_users_size", I(-1, 1_048_576, -1)),
        ("preload_buffer_size", L(1024, 1_073_741_824, 32_768)),
        ("profiling_history_size", I(0, 100, 15)),
        ("query_alloc_block_size", L(1024, 16_777_216, 8192)),
        ("query_cache_limit", L(1024, 16_777_216, 1_048_576)),
        ("query_cache_min_res_unit", L(512, 65_536, 4096)),
        ("query_cache_wlock_invalidate", B(0)),
        ("query_prealloc_size", L(8192, 16_777_216, 8192)),
        ("range_alloc_block_size", L(4096, 65_536, 4096)),
        ("range_optimizer_max_mem_size", L(1024, 134_217_728, 8_388_608)),
        ("slave_checkpoint_group", I(32, 524_280, 512)),
        ("slave_checkpoint_period", I(1, 1_000_000, 300)),
        ("slave_compressed_protocol", B(0)),
        ("slave_net_timeout", I(1, 3600, 60)),
        ("slave_parallel_workers", I(0, 1024, 0)),
        ("slave_pending_jobs_size_max", L(1024, 1_073_741_824, 16_777_216)),
        ("slow_launch_time", I(0, 3600, 2)),
        ("slow_query_log", B(0)),
        ("stored_program_cache", I(16, 524_288, 256)),
        ("sync_frm", B(1)),
        ("sync_master_info", I(0, 100_000, 10_000)),
        ("sync_relay_log", I(0, 100_000, 10_000)),
        ("sync_relay_log_info", I(0, 100_000, 10_000)),
        ("table_definition_cache", I(400, 524_288, 1400)),
    ];

    FILLER
        .iter()
        .map(|(name, f)| match f {
            B(d) => KnobSpec::cat(name, vec!["OFF", "ON"], *d),
            I(lo, hi, d) => KnobSpec::int(name, *lo, *hi, false, *d),
            L(lo, hi, d) => KnobSpec::int(name, *lo, *hi, true, *d),
            C(choices, d) => KnobSpec::cat(name, choices.to_vec(), *d),
        })
        .collect()
}

/// Names of the semantic knobs (resolved by the simulator). Exposed for
/// tests and for experiment drivers that want "the knobs that could
/// plausibly matter".
pub fn semantic_knob_names() -> Vec<&'static str> {
    semantic_knobs().iter().map(|s| s.name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knob::Domain;

    #[test]
    fn catalog_has_exactly_197_knobs() {
        assert_eq!(KnobCatalog::mysql57().len(), N_KNOBS);
    }

    #[test]
    fn knob_names_are_unique() {
        let cat = KnobCatalog::mysql57();
        assert_eq!(cat.by_name.len(), cat.len(), "duplicate knob names");
    }

    #[test]
    fn name_index_iterates_in_sorted_order() {
        // Regression for the D1 determinism contract: the name index must
        // traverse in a defined (sorted) order, independent of insertion
        // order or hasher state, across repeated constructions.
        let cat = KnobCatalog::mysql57();
        let names: Vec<&str> = cat.names_sorted().collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "by_name traversal must be sorted");
        assert_eq!(names.len(), N_KNOBS);
        let again: Vec<&str> = KnobCatalog::mysql57().names_sorted().collect();
        assert_eq!(names, again, "traversal order must be stable across builds");
    }

    #[test]
    fn defaults_are_legal() {
        let cat = KnobCatalog::mysql57();
        for s in cat.specs() {
            assert_eq!(s.domain.clamp(s.default), s.default, "illegal default for {}", s.name);
        }
    }

    #[test]
    fn default_config_sets_buffer_pool_to_60pct_ram() {
        let cat = KnobCatalog::mysql57();
        let cfg = cat.default_config(Hardware::B);
        let bp = cat.expect_index("innodb_buffer_pool_size");
        assert!((cfg[bp] - 16384.0 * 0.6).abs() < 1.0);
        // And scales with hardware.
        let cfg_d = cat.default_config(Hardware::D);
        assert!(cfg_d[bp] > cfg[bp]);
    }

    #[test]
    fn has_continuous_integer_and_categorical_knobs() {
        let cat = KnobCatalog::mysql57();
        let cats = cat.categorical_indices();
        let ints = cat.integer_indices();
        assert!(cats.len() >= 20, "need plenty of categorical knobs, got {}", cats.len());
        assert!(ints.len() >= 100);
        assert!(cats.len() + ints.len() <= cat.len());
    }

    #[test]
    fn log_domains_have_positive_bounds() {
        let cat = KnobCatalog::mysql57();
        for s in cat.specs() {
            if let Domain::Int { lo, log: true, .. } = s.domain {
                assert!(lo > 0, "{} has log scale with non-positive lower bound", s.name);
            }
        }
    }

    #[test]
    fn clamp_config_fixes_out_of_range_values() {
        let cat = KnobCatalog::mysql57();
        let mut cfg = cat.default_config(Hardware::B);
        cfg[0] = 1e12;
        cat.clamp_config(&mut cfg);
        let spec = cat.spec(0);
        assert_eq!(cfg[0], spec.domain.clamp(1e12));
    }

    #[test]
    fn semantic_knobs_all_resolve() {
        let cat = KnobCatalog::mysql57();
        for name in semantic_knob_names() {
            assert!(cat.index_of(name).is_some(), "missing semantic knob {name}");
        }
    }
}
