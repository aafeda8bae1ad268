(* IPv4 addresses, stored as a non-negative int in [0, 2^32). *)

type t = int

let of_int v =
  if v < 0 || v > 0xffffffff then invalid_arg "Addr.of_int: out of range";
  v

let to_int v = v

let of_octets a b c d =
  let check x = if x < 0 || x > 255 then invalid_arg "Addr.of_octets" in
  check a; check b; check c; check d;
  (a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d

let of_string s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] -> (
      try of_octets (int_of_string a) (int_of_string b) (int_of_string c) (int_of_string d)
      with Failure _ -> invalid_arg ("Addr.of_string: " ^ s))
  | _ -> invalid_arg ("Addr.of_string: " ^ s)

(* Dotted quad without [Printf]: the FBS stack formats addresses per
   datagram to name principals. *)
let to_string v =
  let b = Bytes.create 15 in
  let n = ref 0 in
  let put c =
    Bytes.unsafe_set b !n c;
    incr n
  in
  let digit d = put (Char.unsafe_chr (48 + d)) in
  for shift = 3 downto 0 do
    let o = (v lsr (8 * shift)) land 0xff in
    if o >= 100 then digit (o / 100);
    if o >= 10 then digit (o / 10 mod 10);
    digit (o mod 10);
    if shift > 0 then put '.'
  done;
  Bytes.sub_string b 0 !n

let equal (a : t) (b : t) = a = b

let broadcast = 0xffffffff
let any = 0

let in_subnet ~network ~prefix addr =
  if prefix < 0 || prefix > 32 then invalid_arg "Addr.in_subnet: bad prefix";
  if prefix = 0 then true
  else begin
    let mask = lnot ((1 lsl (32 - prefix)) - 1) land 0xffffffff in
    addr land mask = network land mask
  end
