//! Length-prefixed binary wire codec for [`Message`] frames.
//!
//! The socket transport ([`crate::socket`]) sends every protocol message
//! through this module. The codec is one private trait, `Wire`, implemented
//! once for each type that goes on the wire. Fields are written in
//! declaration order, so no field names or type tags travel. Every value has
//! exactly one encoding: `encode(decode(bytes)) == bytes` for every input
//! that decodes at all (see the property tests in `tests/properties.rs`).
//!
//! # Wire format
//!
//! A frame is:
//!
//! ```text
//! ┌────────────┬───────────┬───────────┬──────────────────────┐
//! │ len: u32   │ from: u32 │ to: u32   │ payload (len-8 bytes)│
//! └────────────┴───────────┴───────────┴──────────────────────┘
//! ```
//!
//! `len` counts everything after itself (`from`, `to` and the payload), all
//! integers are little-endian, and the payload is one encoded [`Message`]:
//!
//! | type                                           | encoding                                            |
//! |------------------------------------------------|-----------------------------------------------------|
//! | `u32` (also [`NodeId`]), `u64`                 | 4 or 8 bytes                                        |
//! | [`Digest`]                                     | its `u64`                                           |
//! | `Signature`, [`UniqueIdentifier`], [`Request`] | the fields in declaration order                     |
//! | tuple                                          | the elements in order                               |
//! | `Vec<T>`                                       | `u32` count, then the elements                      |
//! | enum ([`Message`], [`Operation`], …)           | 1-byte variant index, then the variant's fields     |
//!
//! Variant indices count from 0 in declaration order; the `wire_enum!`
//! invocations below list them and are the format's definition. A `Put`
//! request frame is thus 38 bytes: the 12-byte header, the `Request` index,
//! client, id, the `Put` index, key and value.
//!
//! # Robustness
//!
//! Malformed input **errors, never panics, never allocates unboundedly**: a
//! length prefix outside `8..=`[`MAX_FRAME_LEN`] is rejected before any
//! payload is read, every `Vec` count is checked against the bytes actually
//! remaining (at the element type's minimum encoded length) before capacity
//! is reserved, and unknown variant indices and trailing bytes after a
//! complete message are errors. Recursion depth is fixed by the message
//! types, not by the input. The socket transport drops the connection on
//! the first [`WireError`] from a peer.

use crate::crypto::{Digest, Signature};
use crate::minbft::{ByzantineMode, ControlMessage, Message, Operation, Request};
use crate::usig::UniqueIdentifier;
use crate::NodeId;

/// Hard ceiling on the post-length-prefix size of one frame (16 MiB):
/// larger prefixes are rejected before any allocation. State transfers are
/// the largest legitimate frames and stay far below this (compaction bounds
/// the retained log).
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Bytes of the frame header: the `len` prefix plus `from` and `to`.
pub const FRAME_HEADER_LEN: usize = 12;

/// A malformed frame or payload. Every variant is a protocol violation by
/// the peer; the connection that produced it is dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the announced structure was complete.
    Truncated,
    /// A complete message was decoded but input bytes remain.
    TrailingBytes,
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    FrameTooLarge {
        /// The announced frame length.
        len: u64,
    },
    /// The length prefix is shorter than the `from`/`to` header it must
    /// cover.
    FrameTooShort {
        /// The announced frame length.
        len: u64,
    },
    /// A variant index that names no variant of the enum being decoded.
    UnknownVariant {
        /// The enum being decoded.
        type_name: &'static str,
        /// The rejected index.
        index: u8,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::TrailingBytes => write!(f, "trailing bytes after message"),
            WireError::FrameTooLarge { len } => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME_LEN}-byte cap")
            }
            WireError::FrameTooShort { len } => {
                write!(f, "frame length {len} cannot cover the from/to header")
            }
            WireError::UnknownVariant { type_name, index } => {
                write!(f, "unknown {type_name} variant index {index}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// A type with a fixed-layout encoding. `get` reads from the front of
/// `input` and advances it past the bytes it consumed.
trait Wire: Sized {
    /// The fewest bytes any value of the type encodes to: the bound a
    /// decoded `Vec` count is checked against before capacity is reserved.
    const MIN_LEN: usize;

    fn put(&self, buf: &mut Vec<u8>);

    fn get(input: &mut &[u8]) -> Result<Self, WireError>;
}

/// Implements [`Wire`] for unsigned integers: little-endian bytes.
macro_rules! wire_int {
    ($($int:ty),+) => {$(
        impl Wire for $int {
            const MIN_LEN: usize = std::mem::size_of::<$int>();

            fn put(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }

            fn get(input: &mut &[u8]) -> Result<Self, WireError> {
                let (bytes, rest) = input.split_first_chunk().ok_or(WireError::Truncated)?;
                *input = rest;
                Ok(<$int>::from_le_bytes(*bytes))
            }
        }
    )+};
}

wire_int!(u8, u32, u64);

/// Implements [`Wire`] for a struct: its fields in the listed order. The
/// listed field types give `MIN_LEN`; the compiler checks them against the
/// struct.
macro_rules! wire_struct {
    ($ty:ident { $($field:tt: $field_ty:ty),+ $(,)? }) => {
        impl Wire for $ty {
            const MIN_LEN: usize = 0 $(+ <$field_ty as Wire>::MIN_LEN)+;

            fn put(&self, buf: &mut Vec<u8>) {
                $(self.$field.put(buf);)+
            }

            fn get(input: &mut &[u8]) -> Result<Self, WireError> {
                Ok($ty { $($field: <$field_ty as Wire>::get(input)?),+ })
            }
        }
    };
}

wire_struct!(Digest { 0: u64 });
wire_struct!(Signature {
    signer: NodeId,
    tag: u64
});
wire_struct!(UniqueIdentifier {
    replica: NodeId,
    counter: u64,
    signature: Signature
});
wire_struct!(Request {
    client: NodeId,
    id: u64,
    operation: Operation
});

/// Implements [`Wire`] for an enum: the variant's index as one byte, then
/// its fields in the listed order. `put` must match every variant, so a
/// variant added to the enum without a wire index does not compile.
macro_rules! wire_enum {
    ($ty:ident {
        $($index:literal => $variant:ident $(($($tuple:ident),+))? $({ $($field:ident),+ })?),+ $(,)?
    }) => {
        impl Wire for $ty {
            // Every value is at least its variant index.
            const MIN_LEN: usize = 1;

            fn put(&self, buf: &mut Vec<u8>) {
                match self {
                    $($ty::$variant $(($($tuple),+))? $({ $($field),+ })? => {
                        buf.push($index);
                        $($($tuple.put(buf);)+)?
                        $($($field.put(buf);)+)?
                    })+
                }
            }

            fn get(input: &mut &[u8]) -> Result<Self, WireError> {
                Ok(match u8::get(input)? {
                    $($index => {
                        $($(let $tuple = Wire::get(input)?;)+)?
                        $($(let $field = Wire::get(input)?;)+)?
                        $ty::$variant $(($($tuple),+))? $({ $($field),+ })?
                    })+
                    index => {
                        return Err(WireError::UnknownVariant {
                            type_name: stringify!($ty),
                            index,
                        })
                    }
                })
            }
        }
    };
}

wire_enum!(Operation {
    0 => Read,
    1 => Write(value),
    2 => Put { key, value },
    3 => Get { key },
    4 => TxReserve { tx, key, value },
    5 => TxCommit { tx, key },
    6 => TxAbort { tx, key },
});

wire_enum!(ByzantineMode {
    0 => Correct,
    1 => Silent,
    2 => Arbitrary,
});

wire_enum!(ControlMessage {
    0 => Recover,
    1 => Reconfigure { epoch, membership },
    2 => Compromise { mode },
});

wire_enum!(Message {
    0 => Request(request),
    1 => Prepare { view, sequence, requests, ui },
    2 => Commit { view, sequence, batch_digest, ui },
    3 => Reply { request_id, value, sequence },
    4 => Checkpoint { sequence, log_len, state_digest },
    5 => ViewChange { epoch, new_view, high_sequence, stable_sequence, prepared },
    6 => NewView { epoch, view, membership, next_sequence },
    7 => StateRequest { epoch },
    8 => StateTransfer {
        epoch, value, kv, staged, log_start, last_executed, log_chain, stable_sequence,
        executed, view, membership, replies, prepared, chain_base, ui_high
    },
    9 => UiResendRequest { from_counter },
    10 => Control(control),
});

impl<T: Wire> Wire for Vec<T> {
    const MIN_LEN: usize = 4;

    fn put(&self, buf: &mut Vec<u8>) {
        // Receivers reject frames above `MAX_FRAME_LEN` bytes, so no count
        // on a deliverable frame saturates the u32.
        (self.len() as u32).put(buf);
        for item in self {
            item.put(buf);
        }
    }

    fn get(input: &mut &[u8]) -> Result<Self, WireError> {
        let count = u32::get(input)? as usize;
        // A count the remaining bytes cannot hold is rejected *before* any
        // capacity is reserved: an adversarial `u32::MAX` must not allocate.
        if count.saturating_mul(T::MIN_LEN) > input.len() {
            return Err(WireError::Truncated);
        }
        let mut items = Vec::with_capacity(count);
        for _ in 0..count {
            items.push(T::get(input)?);
        }
        Ok(items)
    }
}

/// Implements [`Wire`] for a tuple: its elements in order.
macro_rules! wire_tuple {
    ($($name:ident $index:tt),+) => {
        impl<$($name: Wire),+> Wire for ($($name,)+) {
            const MIN_LEN: usize = 0 $(+ $name::MIN_LEN)+;

            fn put(&self, buf: &mut Vec<u8>) {
                $(self.$index.put(buf);)+
            }

            fn get(input: &mut &[u8]) -> Result<Self, WireError> {
                Ok(($($name::get(input)?,)+))
            }
        }
    };
}

wire_tuple!(A 0, B 1);
wire_tuple!(A 0, B 1, C 2);
wire_tuple!(A 0, B 1, C 2, D 3);

/// Decodes one `T`, requiring the input to be fully consumed.
fn decode_all<T: Wire>(mut input: &[u8]) -> Result<T, WireError> {
    let value = T::get(&mut input)?;
    if !input.is_empty() {
        return Err(WireError::TrailingBytes);
    }
    Ok(value)
}

/// Encodes a message payload (no frame header).
pub fn encode_message(message: &Message) -> Vec<u8> {
    let mut buf = Vec::new();
    message.put(&mut buf);
    buf
}

/// Decodes a message payload produced by [`encode_message`].
///
/// # Errors
///
/// Any [`WireError`] the bounds-checked decoder hits.
pub fn decode_message(bytes: &[u8]) -> Result<Message, WireError> {
    decode_all(bytes)
}

/// Encodes a full frame: length prefix, sender, recipient, payload.
pub fn encode_frame(from: NodeId, to: NodeId, message: &Message) -> Vec<u8> {
    // One allocation covers every normal-case frame; the length prefix is
    // filled in once the payload is written.
    let mut frame = Vec::with_capacity(256);
    frame.extend_from_slice(&[0; 4]);
    from.put(&mut frame);
    to.put(&mut frame);
    message.put(&mut frame);
    let len = (frame.len() - 4) as u32;
    frame[..4].copy_from_slice(&len.to_le_bytes());
    frame
}

/// Validates a frame's length prefix and returns the body size to read
/// (everything after the prefix: `from`, `to` and the payload).
///
/// # Errors
///
/// [`WireError::FrameTooShort`] when the length cannot cover the 8-byte
/// `from`/`to` header, [`WireError::FrameTooLarge`] beyond [`MAX_FRAME_LEN`].
pub fn frame_body_len(prefix: [u8; 4]) -> Result<usize, WireError> {
    let len = u32::from_le_bytes(prefix) as usize;
    if len < 8 {
        return Err(WireError::FrameTooShort { len: len as u64 });
    }
    if len > MAX_FRAME_LEN {
        return Err(WireError::FrameTooLarge { len: len as u64 });
    }
    Ok(len)
}

/// Decodes a frame body (the bytes [`frame_body_len`] asked for) into
/// `(from, to, message)`.
///
/// # Errors
///
/// Any [`WireError`] from the payload decoder.
pub fn decode_frame_body(body: &[u8]) -> Result<(NodeId, NodeId, Message), WireError> {
    decode_all(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_ui(replica: NodeId, counter: u64) -> UniqueIdentifier {
        UniqueIdentifier {
            replica,
            counter,
            signature: Signature {
                signer: replica,
                tag: 0xdead_beef ^ counter,
            },
        }
    }

    fn sample_request(client: NodeId, id: u64, operation: Operation) -> Request {
        Request {
            client,
            id,
            operation,
        }
    }

    fn sample_messages() -> Vec<Message> {
        vec![
            Message::Request(sample_request(10_000, 1, Operation::Read)),
            Message::Request(sample_request(10_001, 2, Operation::Write(7))),
            Message::Request(sample_request(
                10_002,
                3,
                Operation::Put { key: 9, value: 4 },
            )),
            Message::Request(sample_request(10_003, 4, Operation::Get { key: 9 })),
            Message::Request(sample_request(
                10_004,
                5,
                Operation::TxReserve {
                    tx: 1,
                    key: 2,
                    value: 3,
                },
            )),
            Message::Request(sample_request(
                10_005,
                6,
                Operation::TxCommit { tx: 1, key: 2 },
            )),
            Message::Request(sample_request(
                10_006,
                7,
                Operation::TxAbort { tx: 1, key: 2 },
            )),
            Message::Prepare {
                view: 3,
                sequence: 17,
                requests: vec![
                    sample_request(10_000, 8, Operation::Write(1)),
                    sample_request(10_001, 9, Operation::Get { key: 1 }),
                ],
                ui: sample_ui(0, 17),
            },
            Message::Commit {
                view: 3,
                sequence: 17,
                batch_digest: Digest(0x1234),
                ui: sample_ui(2, 5),
            },
            Message::Reply {
                request_id: 9,
                value: 42,
                sequence: 17,
            },
            Message::Checkpoint {
                sequence: 100,
                log_len: 230,
                state_digest: Digest(0x77),
            },
            Message::ViewChange {
                epoch: 1,
                new_view: 4,
                high_sequence: 19,
                stable_sequence: 10,
                prepared: vec![
                    (18, 3, vec![sample_request(10_002, 10, Operation::Read)]),
                    (19, 3, vec![]),
                ],
            },
            Message::NewView {
                epoch: 1,
                view: 4,
                membership: vec![0, 1, 2, 4],
                next_sequence: 20,
            },
            Message::StateRequest { epoch: 1 },
            Message::StateTransfer {
                epoch: 1,
                value: 5,
                kv: vec![(1, 2), (3, 4)],
                staged: vec![(9, 1, 7)],
                log_start: 10,
                last_executed: 19,
                log_chain: Digest(0xabc),
                stable_sequence: 10,
                executed: vec![Digest(1), Digest(2)],
                view: 4,
                membership: vec![0, 1, 2],
                replies: vec![(10_000, 8, 1, 18)],
                prepared: vec![(19, 3, vec![sample_request(10_001, 9, Operation::Read)])],
                chain_base: Digest(0x55),
                ui_high: vec![(0, 19), (1, 17), (2, 18)],
            },
            Message::UiResendRequest { from_counter: 12 },
            Message::Control(ControlMessage::Recover),
            Message::Control(ControlMessage::Reconfigure {
                epoch: 2,
                membership: vec![0, 1, 2, 5],
            }),
            Message::Control(ControlMessage::Compromise {
                mode: ByzantineMode::Arbitrary,
            }),
        ]
    }

    #[test]
    fn every_variant_round_trips_byte_identically() {
        for message in sample_messages() {
            let bytes = encode_message(&message);
            let decoded = decode_message(&bytes).expect("decodes");
            assert_eq!(decoded, message);
            assert_eq!(encode_message(&decoded), bytes, "re-encoding must agree");
        }
    }

    #[test]
    fn frames_round_trip_through_header_validation() {
        for message in sample_messages() {
            let frame = encode_frame(3, 10_000, &message);
            let prefix: [u8; 4] = frame[0..4].try_into().unwrap();
            let body_len = frame_body_len(prefix).expect("valid length");
            assert_eq!(body_len, frame.len() - 4);
            let (from, to, decoded) = decode_frame_body(&frame[4..]).expect("decodes");
            assert_eq!((from, to), (3, 10_000));
            assert_eq!(decoded, message);
        }
    }

    #[test]
    fn frame_sizes_follow_the_documented_layout() {
        let put = sample_request(10_000, 1, Operation::Put { key: 9, value: 4 });
        // Header, `Request` index, client, id, `Put` index, key, value.
        let request = encode_frame(0, 1, &Message::Request(put));
        assert_eq!(request.len(), 38);
        let prepare = encode_frame(
            0,
            1,
            &Message::Prepare {
                view: 0,
                sequence: 1,
                requests: vec![put; 16],
                ui: sample_ui(0, 1),
            },
        );
        // Header, index, view, sequence, count, 16 × 25-byte requests, UI.
        assert_eq!(prepare.len(), 457);
        let commit = encode_frame(
            1,
            0,
            &Message::Commit {
                view: 0,
                sequence: 1,
                batch_digest: Digest(7),
                ui: sample_ui(1, 1),
            },
        );
        // Header, index, view, sequence, digest, UI.
        assert_eq!(commit.len(), 61);
    }

    #[test]
    fn oversized_and_undersized_length_prefixes_are_rejected() {
        let too_large = ((MAX_FRAME_LEN + 1) as u32).to_le_bytes();
        assert_eq!(
            frame_body_len(too_large),
            Err(WireError::FrameTooLarge {
                len: (MAX_FRAME_LEN + 1) as u64
            })
        );
        assert_eq!(
            frame_body_len(7u32.to_le_bytes()),
            Err(WireError::FrameTooShort { len: 7 })
        );
        assert!(frame_body_len(8u32.to_le_bytes()).is_ok());
    }

    #[test]
    fn truncations_of_a_valid_frame_never_panic() {
        let message = Message::StateTransfer {
            epoch: 1,
            value: 5,
            kv: (0..100).map(|i| (i, i as u64)).collect(),
            staged: vec![],
            log_start: 0,
            last_executed: 50,
            log_chain: Digest(1),
            stable_sequence: 0,
            executed: (0..50).map(Digest).collect(),
            view: 0,
            membership: vec![0, 1, 2, 3],
            replies: vec![],
            prepared: vec![],
            chain_base: Digest(0),
            ui_high: vec![],
        };
        let bytes = encode_message(&message);
        for cut in 0..bytes.len() {
            // Every proper prefix must fail cleanly (truncation errors, not
            // panics or bogus successes).
            assert!(decode_message(&bytes[..cut]).is_err(), "prefix {cut}");
        }
    }

    #[test]
    fn corrupted_bytes_error_instead_of_panicking() {
        let original = encode_message(&Message::Prepare {
            view: 1,
            sequence: 2,
            requests: vec![sample_request(10_000, 1, Operation::Write(3))],
            ui: sample_ui(0, 2),
        });
        for position in 0..original.len() {
            let mut corrupted = original.clone();
            corrupted[position] ^= 0xff;
            // Either a clean decode error or a (harmless) different message;
            // never a panic. A message has exactly one encoding, so a
            // successful decode re-encodes to the corrupted bytes.
            if let Ok(message) = decode_message(&corrupted) {
                assert_eq!(
                    encode_message(&message),
                    corrupted,
                    "corruption at {position} decoded non-canonically"
                );
            }
        }
    }

    #[test]
    fn adversarial_counts_are_rejected_before_allocation() {
        // A PREPARE claiming u32::MAX requests backed by a few bytes: the
        // count/remaining check must reject it before reserving.
        let mut bytes = vec![1u8];
        bytes.extend_from_slice(&[0; 16]); // view, sequence
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0; 24]);
        assert_eq!(decode_message(&bytes), Err(WireError::Truncated));

        // A count that fits at one byte per element but not at the element
        // type's minimum (a `Request` is at least 13 bytes).
        let mut bytes = vec![1u8];
        bytes.extend_from_slice(&[0; 16]);
        bytes.extend_from_slice(&10u32.to_le_bytes());
        bytes.extend_from_slice(&[0; 100]);
        assert_eq!(decode_message(&bytes), Err(WireError::Truncated));

        // The check holds at every nesting level: a VIEW-CHANGE carrying one
        // certificate whose batch claims u32::MAX requests.
        let mut bytes = vec![5u8];
        bytes.extend_from_slice(&[0; 32]); // epoch … stable_sequence
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&[0; 16]); // certificate sequence, view
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0; 8]);
        assert_eq!(decode_message(&bytes), Err(WireError::Truncated));
    }

    #[test]
    fn unknown_variants_and_trailing_bytes_are_rejected() {
        let unknown = |type_name, index| Err(WireError::UnknownVariant { type_name, index });
        assert_eq!(decode_message(&[11]), unknown("Message", 11));
        assert_eq!(decode_message(&[0xff; 4]), unknown("Message", 0xff));

        let mut request = encode_message(&Message::Request(sample_request(
            10_000,
            1,
            Operation::Read,
        )));
        *request.last_mut().unwrap() = 7;
        assert_eq!(decode_message(&request), unknown("Operation", 7));

        assert_eq!(decode_message(&[10, 3]), unknown("ControlMessage", 3));
        assert_eq!(decode_message(&[10, 2, 3]), unknown("ByzantineMode", 3));

        assert_eq!(decode_message(&[]), Err(WireError::Truncated));
        let mut bytes = encode_message(&Message::StateRequest { epoch: 1 });
        bytes.push(0);
        assert_eq!(decode_message(&bytes), Err(WireError::TrailingBytes));
    }
}
