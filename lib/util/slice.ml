(* A borrowed view of a byte string: [base] is the backing buffer, the
   slice covers [off, off+len).  The datapath passes slices instead of
   freshly-copied strings so each datagram is materialized once (the
   sealed wire buffer on send, the plaintext on receive) instead of 5-8
   times.

   Ownership discipline (DESIGN.md, "Datapath and buffer ownership"): a
   slice borrows its base and is valid only while the base is.  Anything
   that outlives the current datagram's processing — cache entries,
   replay-window state, the application-visible payload — must copy via
   [to_string].  [of_bytes_unsafe] exists for per-engine scratch buffers
   that are refilled between datagrams; such slices must be consumed
   before the scratch is next written. *)

type t = { base : string; off : int; len : int }

let check base off len =
  if off < 0 || len < 0 || off > String.length base - len then
    invalid_arg
      (Printf.sprintf "Slice: [%d,%d+%d) outside base of length %d" off off len
         (String.length base))

let v ?(off = 0) ?len base =
  let len = match len with Some l -> l | None -> String.length base - off in
  check base off len;
  { base; off; len }

let of_string base = { base; off = 0; len = String.length base }

(* Zero-copy view of a mutable buffer.  The caller owns [b] and promises
   not to mutate it while the slice is live (scratch-buffer idiom: fill,
   feed to a consumer that reads immediately, refill). *)
let of_bytes_unsafe b = of_string (Bytes.unsafe_to_string b)

let base t = t.base
let length t = t.len

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Slice.get: out of bounds";
  String.unsafe_get t.base (t.off + i)

let unsafe_get t i = String.unsafe_get t.base (t.off + i)

let sub t ~pos ~len =
  if pos < 0 || len < 0 || pos > t.len - len then
    invalid_arg "Slice.sub: out of bounds";
  { base = t.base; off = t.off + pos; len }

(* Materialize.  The whole-base fast path returns the base itself, so
   slicing a string and converting back is free — the common case on the
   unfaulted link path and the shim decapsulation path. *)
let to_string t =
  if t.off = 0 && t.len = String.length t.base then t.base
  else String.sub t.base t.off t.len

let blit t dst dst_pos = Bytes.blit_string t.base t.off dst dst_pos t.len

(* Structural byte equality (not constant-time — see {!Ct.equal_slice}
   in the crypto layer for MAC comparison). *)
let equal a b =
  a.len = b.len
  && (a.base == b.base && a.off = b.off
     ||
     let rec go i =
       i >= a.len
       || String.unsafe_get a.base (a.off + i) = String.unsafe_get b.base (b.off + i)
          && go (i + 1)
     in
     go 0)

(* Append to an assembly buffer without an intermediate copy. *)
let append w t = Byte_writer.substring w t.base t.off t.len
