(* The security flow header (paper, Section 5.2, Figure 2), with the field
   sizes of the paper's FreeBSD implementation (Section 7.2):

     sfl 64 bits | confounder 32 bits | timestamp 32 bits | MAC 128 bits

   plus the algorithm-identification field the paper specifies but leaves
   undescribed (one suite byte) and one flags byte carrying the "secret"
   bit, which the receiver needs to know whether to decrypt.  The MAC field
   is 128 bits: the full keyed-MD5 MAC, all zero under NOP.

   Wire layout (big-endian):
     u64 sfl | u8 suite | u8 flags | u32 confounder | u32 timestamp | MAC *)

open Fbsr_util

type t = {
  sfl : Sfl.t;
  suite : Suite.t;
  secret : bool; (* payload is encrypted *)
  confounder : int; (* 32-bit statistically-random value *)
  timestamp : int; (* minutes since the FBS epoch, 32-bit *)
  mac : string; (* [mac_length] bytes *)
}

let fixed_size = 8 + 1 + 1 + 4 + 4
let mac_length = 16
let size = fixed_size + mac_length

let flag_secret = 0x01

(* Write the fixed fields up to (but excluding) the MAC — the assembly
   primitive the zero-copy seal path uses to build header and body in one
   buffer. *)
let encode_fields_into w ~sfl ~(suite : Suite.t) ~secret ~confounder ~timestamp =
  Byte_writer.u64 w (Sfl.to_int64 sfl);
  Byte_writer.u8 w suite.Suite.id;
  Byte_writer.u8 w (if secret then flag_secret else 0);
  Byte_writer.u32_int w confounder;
  Byte_writer.u32_int w timestamp

let encode_into w t =
  if String.length t.mac <> mac_length then
    invalid_arg "Header.encode: MAC must be 16 bytes";
  encode_fields_into w ~sfl:t.sfl ~suite:t.suite ~secret:t.secret
    ~confounder:t.confounder ~timestamp:t.timestamp;
  Byte_writer.bytes w t.mac

let encode t =
  let w = Byte_writer.create ~capacity:size () in
  encode_into w t;
  (* Exact capacity: [finalize] steals the backing buffer — one
     allocation for the encoded header. *)
  Byte_writer.finalize w

type error = Truncated | Unknown_suite of int | Bad_flags of int

let decode raw : (t * string, error) result =
  let r = Byte_reader.of_string raw in
  match
    let sfl = Sfl.of_int64 (Byte_reader.u64 r) in
    let suite_id = Byte_reader.u8 r in
    let flags = Byte_reader.u8 r in
    let confounder = Byte_reader.u32_int r in
    let timestamp = Byte_reader.u32_int r in
    (sfl, suite_id, flags, confounder, timestamp)
  with
  | exception Byte_reader.Truncated -> Error Truncated
  | sfl, suite_id, flags, confounder, timestamp -> (
      match Suite.of_id suite_id with
      | None -> Error (Unknown_suite suite_id)
      | Some _ when flags land lnot flag_secret <> 0 ->
          (* Reserved flag bits must be zero: they are not covered by the
             MAC recomputation (the receiver rebuilds the flags byte from
             the parsed fields), so tolerating them would let an attacker
             flip them undetected. *)
          Error (Bad_flags flags)
      | Some suite -> (
          match Byte_reader.bytes r mac_length with
          | exception Byte_reader.Truncated -> Error Truncated
          | mac ->
              let body = Byte_reader.rest r in
              Ok
                ( {
                    sfl;
                    suite;
                    secret = flags land flag_secret <> 0;
                    confounder;
                    timestamp;
                    mac;
                  },
                  body )))

(* Zero-copy decode: a [view] borrows the MAC and body straight out of
   the wire buffer instead of copying them into fresh strings.  The
   scalar fields are parsed eagerly (they are cheap immediates); only the
   variable-length fields stay as slices.  [decode] above is retained
   unchanged as the string-based reference implementation for the
   differential suite. *)
type view = {
  v_sfl : Sfl.t;
  v_suite : Suite.t;
  v_secret : bool;
  v_confounder : int;
  v_timestamp : int;
  v_mac : Slice.t; (* borrowed from the wire buffer *)
  v_body : Slice.t; (* borrowed from the wire buffer *)
}

let decode_view (wire : Slice.t) : (view, error) result =
  let r =
    Byte_reader.of_string ~pos:wire.Slice.off ~len:wire.Slice.len wire.Slice.base
  in
  match
    let sfl = Sfl.of_int64 (Byte_reader.u64 r) in
    let suite_id = Byte_reader.u8 r in
    let flags = Byte_reader.u8 r in
    let confounder = Byte_reader.u32_int r in
    let timestamp = Byte_reader.u32_int r in
    (sfl, suite_id, flags, confounder, timestamp)
  with
  | exception Byte_reader.Truncated -> Error Truncated
  | sfl, suite_id, flags, confounder, timestamp -> (
      match Suite.of_id suite_id with
      | None -> Error (Unknown_suite suite_id)
      | Some _ when flags land lnot flag_secret <> 0 -> Error (Bad_flags flags)
      | Some suite ->
          if Byte_reader.remaining r < mac_length then Error Truncated
          else begin
            let mac_pos = Byte_reader.position r in
            Byte_reader.skip r mac_length;
            let body_pos = Byte_reader.position r in
            Ok
              {
                v_sfl = sfl;
                v_suite = suite;
                v_secret = flags land flag_secret <> 0;
                v_confounder = confounder;
                v_timestamp = timestamp;
                v_mac = Slice.v ~off:mac_pos ~len:mac_length wire.Slice.base;
                v_body =
                  Slice.v ~off:body_pos ~len:(Byte_reader.remaining r)
                    wire.Slice.base;
              }
          end)

(* Materialize the header record from a view — only called once a
   datagram is accepted, so rejected traffic never pays the MAC copy. *)
let to_header v =
  {
    sfl = v.v_sfl;
    suite = v.v_suite;
    secret = v.v_secret;
    confounder = v.v_confounder;
    timestamp = v.v_timestamp;
    mac = Slice.to_string v.v_mac;
  }

(* Scratch-buffer writers for the zero-copy datapath: the engine keeps a
   reusable 10-byte MAC-prelude buffer and an 8-byte IV buffer per
   instance, refilled per datagram instead of allocated per datagram.
   [Fbsr_oracles.Reference] builds the same byte streams as fresh
   strings.

   The MAC prelude is the suite and flags bytes, then the confounder and
   timestamp.  The paper MACs only confounder | timestamp | payload (sfl
   integrity is implicit in the key); the algorithm-identification field
   is our concretization of the paper's sketch, so we authenticate those
   two bytes as well — otherwise reserved flag bits could be flipped in
   transit undetected. *)

let mac_prelude_size = 2 + 4 + 4

let write_mac_prelude scratch ~(suite : Suite.t) ~secret ~confounder ~timestamp =
  if Bytes.length scratch < mac_prelude_size then
    invalid_arg "Header.write_mac_prelude: scratch too short";
  Bytes.set scratch 0 (Char.chr suite.Suite.id);
  Bytes.set scratch 1 (Char.chr (if secret then flag_secret else 0));
  for i = 0 to 3 do
    Bytes.set scratch (2 + i) (Char.chr ((confounder lsr (8 * (3 - i))) land 0xff));
    Bytes.set scratch (6 + i) (Char.chr ((timestamp lsr (8 * (3 - i))) land 0xff))
  done

let write_confounder_iv scratch ~confounder =
  if Bytes.length scratch < 8 then
    invalid_arg "Header.write_confounder_iv: scratch too short";
  for i = 0 to 3 do
    let c = Char.chr ((confounder lsr (8 * (3 - i))) land 0xff) in
    Bytes.set scratch i c;
    Bytes.set scratch (4 + i) c
  done
