//! Audio-volume constants and conversions, and the ambient noise level.
//!
//! The evaluation in the paper samples the microphone at **2.730 kHz** with
//! one byte per sample, and stores data in **256-byte** flash blocks. These
//! constants tie recording time to storage volume; every crate that reasons
//! about "seconds of audio vs. bytes of flash" goes through this module so
//! the arithmetic cannot drift apart.
//!
//! # Examples
//!
//! ```
//! use enviromic_types::audio;
//!
//! // One full chunk holds ~85 ms of audio.
//! let secs = audio::chunks_to_secs(1);
//! assert!((secs - 0.085).abs() < 1e-3);
//! ```

use crate::SimDuration;

/// Acoustic sampling rate used throughout the paper's evaluation (§IV).
pub const SAMPLE_RATE_HZ: u32 = 2_730;

/// Bytes per audio sample (8-bit ADC reading, as on the MTS300 board).
pub const BYTES_PER_SAMPLE: u32 = 1;

/// Audio byte rate while recording.
pub const BYTES_PER_SEC: u32 = SAMPLE_RATE_HZ * BYTES_PER_SAMPLE;

/// Flash block / chunk size (§III-B.3: "fixed-length blocks of 256 bytes").
pub const CHUNK_BYTES: u32 = 256;

/// Payload bytes available in a chunk once the metadata header is accounted
/// for. The header layout lives in `enviromic-flash`; its size is fixed so
/// the constant can live here with the other volume arithmetic.
pub const CHUNK_HEADER_BYTES: u32 = 24;

/// Audio payload bytes per chunk.
pub const CHUNK_PAYLOAD_BYTES: u32 = CHUNK_BYTES - CHUNK_HEADER_BYTES;

/// Number of audio samples carried by one full chunk.
pub const SAMPLES_PER_CHUNK: u32 = CHUNK_PAYLOAD_BYTES / BYTES_PER_SAMPLE;

/// Ambient noise floor on the 0–255 ADC scale: the level the simulated
/// field reads with no source audible, and the detector's starting
/// background estimate.
pub const AMBIENT_LEVEL: f64 = 8.0;

/// Wall-clock span covered by one full chunk of audio.
#[must_use]
pub fn chunk_duration() -> SimDuration {
    SimDuration::from_secs_f64(SAMPLES_PER_CHUNK as f64 / SAMPLE_RATE_HZ as f64)
}

/// Seconds of audio representable by `bytes` of payload.
#[must_use]
pub fn bytes_to_secs(bytes: u64) -> f64 {
    bytes as f64 / BYTES_PER_SEC as f64
}

/// Seconds of audio that fit in `chunks` full chunks.
#[must_use]
pub fn chunks_to_secs(chunks: u64) -> f64 {
    bytes_to_secs(chunks * CHUNK_PAYLOAD_BYTES as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_layout_adds_up() {
        assert_eq!(CHUNK_HEADER_BYTES + CHUNK_PAYLOAD_BYTES, CHUNK_BYTES);
        assert_eq!(SAMPLES_PER_CHUNK, 232);
    }

    #[test]
    fn chunk_duration_matches_sample_rate() {
        let d = chunk_duration();
        let expect = 232.0 / 2730.0;
        assert!((d.as_secs_f64() - expect).abs() < 1e-4);
    }

    #[test]
    fn a_half_megabyte_is_about_three_minutes() {
        // Sanity-check against the paper's "two minutes at 4 kHz" remark for
        // a 0.5 MB flash: at 2.73 kHz, 0.5 MB is about 192 s.
        let secs = bytes_to_secs(512 * 1024);
        assert!((secs - 192.0).abs() < 1.0, "got {secs}");
    }
}
