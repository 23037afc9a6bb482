//! Pinned outputs: what correct runs produce. A timed run whose digest or
//! record count differs from its pin measured a different program.

use crate::workloads::Workload;

/// The seed every workload pin is taken at.
pub const PIN_SEED: u64 = 42;

/// `(scenario label, seed, trace digest, trace records)`.
pub type Pin = (&'static str, u64, u64, u64);

/// The behaviour contract of the repository (`tests/determinism.rs`):
/// quick-indoor 120 s and quick-mobile at seed 42.
pub const GOLDENS: [Pin; 2] = [
    ("quick-indoor", 42, 0x42b8_1c6d_9160_48ba, 9127),
    ("quick-mobile", 42, 0xe11e_713b_b6c8_8da3, 2209),
];

/// Result digest of `enviromic_bench::retrieval::run_retrieval` with
/// default options (`BENCH_retrieval.json`).
pub const RETRIEVAL_RESULT_DIGEST: &str = "0x5184190ef9b5d2f3";

/// The seed-42 jobs of each simulated workload.
pub fn workload_pins(workload: Workload) -> &'static [Pin] {
    match workload {
        // The city-100k row of `BENCH_scale.json`.
        Workload::CityWide => &[("city-100k", 42, 0xa7f5_c391_e104_9ae9, 306_583)],
        Workload::CityLong => &[("city-10k", 42, 0x7def_a853_f0f2_b2d9, 1_141_786)],
        Workload::Testbed => &TESTBED,
        // The archive is built at the pin seed whatever the run's seed, so
        // its pin is checked on every run; for it, "records" counts
        // archive records and the digest is a whole-span query's.
        Workload::Retrieval => &[
            ("archive", 42, 0x82ba_8ae3_71c8_8f8d, 1789),
            ("retrieval", 42, 0x8ae1_9eb8_1e45_1d65, 1789),
        ],
    }
}

/// The 32 testbed jobs at seed 42, as the `sweep` binary reports them
/// (`sweep --duration 600 --seeds 8 --seed-start 42`, with and without
/// `--chaos`).
const TESTBED: [Pin; 32] = [
    ("quick-indoor", 42, 0x7e3e_cae0_c767_5940, 25882),
    ("quick-indoor", 43, 0x69f8_bb68_f644_41ab, 29321),
    ("quick-indoor", 44, 0x16cc_60dd_d4f5_b794, 28923),
    ("quick-indoor", 45, 0x003c_78f6_1ae3_3e27, 29933),
    ("quick-indoor", 46, 0x0d16_ad9d_8fe8_c4ae, 30864),
    ("quick-indoor", 47, 0x7307_675d_c5dd_6244, 30631),
    ("quick-indoor", 48, 0x226a_bcda_a0cf_5b45, 31528),
    ("quick-indoor", 49, 0x2b32_50a4_ae7d_9f2a, 27297),
    ("quick-forest", 42, 0x45cd_9c7d_a276_a95b, 11327),
    ("quick-forest", 43, 0xf867_4cb2_c665_bd9a, 13249),
    ("quick-forest", 44, 0x102f_f6aa_b715_0990, 13689),
    ("quick-forest", 45, 0xbbd5_686f_d0f1_026f, 10219),
    ("quick-forest", 46, 0x2641_9814_c699_3be4, 10720),
    ("quick-forest", 47, 0x27a7_e35f_3c8e_23d6, 13602),
    ("quick-forest", 48, 0x5eaf_ee0d_a315_5b68, 12568),
    ("quick-forest", 49, 0xbf2a_3051_cf6e_d3e6, 11861),
    ("chaos-indoor", 42, 0x24b9_21e3_f508_2a32, 29094),
    ("chaos-indoor", 43, 0x591f_bb11_b9a1_a1bc, 41537),
    ("chaos-indoor", 44, 0xbb27_a853_1d04_ce7e, 32959),
    ("chaos-indoor", 45, 0xac2a_2a87_d120_8f5d, 33094),
    ("chaos-indoor", 46, 0x317c_0d16_e5a8_a7c7, 36771),
    ("chaos-indoor", 47, 0xf76b_1a15_7bf8_bc29, 33808),
    ("chaos-indoor", 48, 0xc588_a59b_2821_4c05, 38180),
    ("chaos-indoor", 49, 0xe564_0828_c3fc_4d37, 30510),
    ("chaos-forest", 42, 0xf98d_bd7b_98fe_74b3, 11687),
    ("chaos-forest", 43, 0xa511_5d3a_99e9_d3aa, 13794),
    ("chaos-forest", 44, 0x388d_1c70_5d1c_4a62, 13478),
    ("chaos-forest", 45, 0x0764_769b_acca_a4a0, 10587),
    ("chaos-forest", 46, 0x236a_c985_4c40_7eb4, 12067),
    ("chaos-forest", 47, 0xae93_2d79_0e81_ecd9, 13351),
    ("chaos-forest", 48, 0x7659_8c7c_11e8_8451, 14421),
    ("chaos-forest", 49, 0x9c65_26b7_8f71_aba0, 12217),
];
