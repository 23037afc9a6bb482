//! The node energy model (MicaZ-class numbers).

/// Energy model parameters a backend exposes to the protocol.
///
/// Only ratios of these rates enter protocol decisions (`TTL_energy`,
/// §II-B of the paper), so representative data-sheet values are
/// sufficient. Backends use the same struct to *drive* their battery
/// accounting; the protocol only ever reads it.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyModel {
    /// Initial battery energy per node, millijoules (2×AA ≈ 20 kJ).
    pub battery_mj: f64,
    /// Baseline draw with CPU duty-cycled and radio off, milliwatts.
    pub idle_mw: f64,
    /// Additional draw while the radio is listening, milliwatts.
    pub radio_listen_mw: f64,
    /// Additional draw while transmitting, milliwatts (applied for airtime).
    pub radio_tx_mw: f64,
    /// Additional draw while sampling the microphone at full rate, mW.
    pub sampling_mw: f64,
    /// Energy per 256-byte flash block write, millijoules.
    pub flash_write_mj_per_block: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel {
            battery_mj: 20_000_000.0,
            idle_mw: 0.09,
            radio_listen_mw: 59.1,
            radio_tx_mw: 52.2,
            sampling_mw: 24.0,
            flash_write_mj_per_block: 0.02,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let e = EnergyModel::default();
        assert!(e.battery_mj > 0.0);
        assert!(e.radio_listen_mw > e.idle_mw);
        assert!(e.flash_write_mj_per_block > 0.0);
    }
}
