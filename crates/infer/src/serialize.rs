//! Model weight serialization — the byte format that gets sealed /
//! encrypted at rest in the confidential pipeline.
//!
//! Format (little-endian): magic `CLLM`, version u16, seven u32 config
//! fields, then per block and head each weight matrix as produced by
//! [`Matrix::to_bytes`], length-prefixed with u64. Only f32 models are
//! serialized; quantization is re-applied after loading (as the paper's
//! deployments do: the artifact at rest is the full-precision model).

use crate::model::{BlockWeights, Linear, TinyConfig, TinyModel};
use crate::tensor::Matrix;

const MAGIC: &[u8; 4] = b"CLLM";
const VERSION: u16 = 1;

/// Serialization errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SerializeError {
    /// The model contains quantized layers; serialize the f32 original.
    QuantizedModel,
    /// The byte stream is not a valid model.
    Malformed(&'static str),
}

impl std::fmt::Display for SerializeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SerializeError::QuantizedModel => {
                f.write_str("quantized models are not serializable; store the f32 original")
            }
            SerializeError::Malformed(what) => write!(f, "malformed model bytes: {what}"),
        }
    }
}

impl std::error::Error for SerializeError {}

fn linear_matrix(l: &Linear) -> Result<&Matrix, SerializeError> {
    match l {
        // NaiveF32 is a kernel choice, not a weight format: it serializes
        // as full precision and deserializes as the (tiled) F32 variant.
        Linear::F32(m) | Linear::NaiveF32(m) => Ok(m),
        Linear::Int8(_) | Linear::Int4(_) => Err(SerializeError::QuantizedModel),
    }
}

fn push_matrix(out: &mut Vec<u8>, m: &Matrix) {
    let bytes = m.to_bytes();
    out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
    out.extend_from_slice(&bytes);
}

fn push_vec(out: &mut Vec<u8>, v: &[f32]) {
    push_matrix(out, &Matrix::from_vec(1, v.len(), v.to_vec()));
}

/// Serialize an f32 model to bytes.
pub fn model_to_bytes(model: &TinyModel) -> Result<Vec<u8>, SerializeError> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    let c = &model.config;
    for field in [
        c.hidden,
        c.layers,
        c.heads,
        c.kv_heads,
        c.intermediate,
        c.vocab,
        c.max_seq,
    ] {
        out.extend_from_slice(&(field as u32).to_le_bytes());
    }
    out.extend_from_slice(&c.rope_theta.to_le_bytes());
    out.extend_from_slice(&c.eps.to_le_bytes());

    push_matrix(&mut out, &model.embed);
    for b in &model.blocks {
        push_vec(&mut out, &b.input_norm);
        for l in [&b.wq, &b.wk, &b.wv, &b.wo, &b.w_gate, &b.w_up, &b.w_down] {
            push_matrix(&mut out, linear_matrix(l)?);
        }
        push_vec(&mut out, &b.post_norm);
    }
    push_vec(&mut out, &model.final_norm);
    push_matrix(&mut out, linear_matrix(&model.lm_head)?);
    Ok(out)
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SerializeError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(SerializeError::Malformed("truncated"))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, SerializeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn f32(&mut self) -> Result<f32, SerializeError> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn matrix(&mut self) -> Result<Matrix, SerializeError> {
        let len = u64::from_le_bytes(self.take(8)?.try_into().expect("8")) as usize;
        Matrix::from_bytes(self.take(len)?).ok_or(SerializeError::Malformed("bad matrix"))
    }

    fn vec(&mut self) -> Result<Vec<f32>, SerializeError> {
        Ok(self.matrix()?.as_slice().to_vec())
    }
}

/// Deserialize a model from [`model_to_bytes`] output.
pub fn model_from_bytes(bytes: &[u8]) -> Result<TinyModel, SerializeError> {
    let mut r = Reader { bytes, pos: 0 };
    if r.take(4)? != MAGIC {
        return Err(SerializeError::Malformed("bad magic"));
    }
    let version = u16::from_le_bytes(r.take(2)?.try_into().expect("2"));
    if version != VERSION {
        return Err(SerializeError::Malformed("unsupported version"));
    }
    let config = TinyConfig {
        hidden: r.u32()? as usize,
        layers: r.u32()? as usize,
        heads: r.u32()? as usize,
        kv_heads: r.u32()? as usize,
        intermediate: r.u32()? as usize,
        vocab: r.u32()? as usize,
        max_seq: r.u32()? as usize,
        rope_theta: r.f32()?,
        eps: r.f32()?,
    };
    if config.heads == 0 || config.kv_heads == 0 || !config.hidden.is_multiple_of(config.heads) {
        return Err(SerializeError::Malformed("inconsistent config"));
    }
    let embed = r.matrix()?;
    // No pre-allocation from the header: `layers` is untrusted, and each
    // layer must first parse from bytes that are really there.
    let mut blocks = Vec::new();
    for _ in 0..config.layers {
        let input_norm = r.vec()?;
        let wq = Linear::F32(r.matrix()?);
        let wk = Linear::F32(r.matrix()?);
        let wv = Linear::F32(r.matrix()?);
        let wo = Linear::F32(r.matrix()?);
        let w_gate = Linear::F32(r.matrix()?);
        let w_up = Linear::F32(r.matrix()?);
        let w_down = Linear::F32(r.matrix()?);
        let post_norm = r.vec()?;
        blocks.push(BlockWeights {
            input_norm,
            wq,
            wk,
            wv,
            wo,
            post_norm,
            w_gate,
            w_up,
            w_down,
        });
    }
    let final_norm = r.vec()?;
    let lm_head = Linear::F32(r.matrix()?);
    Ok(TinyModel {
        config,
        embed,
        blocks,
        final_norm,
        lm_head,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let m = TinyModel::init(&TinyConfig::test_small(), 7);
        let bytes = model_to_bytes(&m).unwrap();
        let back = model_from_bytes(&bytes).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn roundtrip_model_generates_identically() {
        use crate::generate::{generate, Sampling};
        let m = TinyModel::init(&TinyConfig::test_small(), 7);
        let back = model_from_bytes(&model_to_bytes(&m).unwrap()).unwrap();
        assert_eq!(
            generate(&m, &[1, 2], 6, Sampling::Greedy, 0),
            generate(&back, &[1, 2], 6, Sampling::Greedy, 0)
        );
    }

    #[test]
    fn quantized_model_rejected() {
        let m = TinyModel::init(&TinyConfig::test_small(), 7).quantized();
        assert_eq!(model_to_bytes(&m), Err(SerializeError::QuantizedModel));
        let m4 = TinyModel::init(&TinyConfig::test_small(), 7).quantized4();
        assert_eq!(model_to_bytes(&m4), Err(SerializeError::QuantizedModel));
    }

    #[test]
    fn naive_model_serializes_as_f32() {
        let m = TinyModel::init(&TinyConfig::test_small(), 7);
        let bytes_naive = model_to_bytes(&m.naive()).unwrap();
        assert_eq!(bytes_naive, model_to_bytes(&m).unwrap());
        // Deserializes back onto the tiled path.
        assert_eq!(model_from_bytes(&bytes_naive).unwrap(), m);
    }

    #[test]
    fn malformed_rejected() {
        assert!(model_from_bytes(b"nope").is_err());
        let m = TinyModel::init(&TinyConfig::test_small(), 7);
        let mut bytes = model_to_bytes(&m).unwrap();
        bytes.truncate(bytes.len() / 2);
        assert!(model_from_bytes(&bytes).is_err());
        bytes[0] = b'X';
        assert!(model_from_bytes(&bytes).is_err());
    }

    #[test]
    fn huge_layer_count_is_malformed_not_an_abort() {
        // A header claiming u32::MAX layers once reached
        // `Vec::with_capacity` and aborted the process on allocation.
        let m = TinyModel::init(&TinyConfig::test_small(), 7);
        let mut bytes = model_to_bytes(&m).unwrap();
        // magic (4) + version (2) + hidden (4), then layers.
        bytes[10..14].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            model_from_bytes(&bytes),
            Err(SerializeError::Malformed(_))
        ));
    }
}
