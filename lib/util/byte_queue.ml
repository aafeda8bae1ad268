(* A FIFO byte queue over string chunks with O(1) amortized append and
   drop-from-front, and random-access reads relative to the current head.
   Used by the mini-TCP send buffer: acknowledged bytes are dropped from the
   front while retransmission may re-read any unacknowledged range. *)

type t = {
  mutable chunks : string list; (* oldest first *)
  mutable tail : string list; (* newest first; reversed lazily *)
  mutable head_off : int; (* bytes consumed from the first chunk *)
  mutable length : int;
}

let create () = { chunks = []; tail = []; head_off = 0; length = 0 }

let length t = t.length

let push t s =
  if String.length s > 0 then begin
    t.tail <- s :: t.tail;
    t.length <- t.length + String.length s
  end

let normalize t =
  if t.chunks = [] && t.tail <> [] then begin
    t.chunks <- List.rev t.tail;
    t.tail <- []
  end

let rec drop t n =
  if n < 0 then invalid_arg "Byte_queue.drop: negative";
  if n > t.length then invalid_arg "Byte_queue.drop: more than length";
  if n > 0 then begin
    normalize t;
    match t.chunks with
    | [] -> assert false
    | c :: rest ->
        let avail = String.length c - t.head_off in
        if n >= avail then begin
          t.chunks <- rest;
          t.head_off <- 0;
          t.length <- t.length - avail;
          drop t (n - avail)
        end
        else begin
          t.head_off <- t.head_off + n;
          t.length <- t.length - n
        end
  end

let read t ~off ~len =
  if off < 0 || len < 0 || off + len > t.length then
    invalid_arg "Byte_queue.read: out of bounds";
  let out = Bytes.create len in
  let written = ref 0 in
  let skip = ref (t.head_off + off) in
  let consume chunk =
    if !written < len then begin
      let clen = String.length chunk in
      if !skip >= clen then skip := !skip - clen
      else begin
        let take = min (clen - !skip) (len - !written) in
        Bytes.blit_string chunk !skip out !written take;
        written := !written + take;
        skip := 0
      end
    end
  in
  List.iter consume t.chunks;
  List.iter consume (List.rev t.tail);
  assert (!written = len);
  Bytes.unsafe_to_string out
