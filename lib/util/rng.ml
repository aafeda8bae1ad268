(* Deterministic pseudo-random number generator for the simulator and the
   synthetic workload generator.

   The core is splitmix64, which has excellent statistical quality for
   simulation purposes and is trivially seedable, making every experiment
   reproducible from a single integer seed.  It is NOT a cryptographic
   generator; the cryptographic generator (Blum-Blum-Shub) lives in the
   crypto library. *)

type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }

let golden_gamma = 0x9e3779b97f4a7c15L

let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let bits t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 34) (* 30 bits *)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  if bound land (bound - 1) = 0 then bits t land (bound - 1)
  else begin
    (* Rejection sampling to avoid modulo bias. *)
    let rec go () =
      let r = bits t in
      let v = r mod bound in
      if r - v + (bound - 1) < 0 then go () else v
    in
    go ()
  end

let int_range t lo hi =
  if hi < lo then invalid_arg "Rng.int_range: empty range";
  lo + int t (hi - lo + 1)

let float t x =
  (* 53 bits of mantissa from two draws. *)
  let hi = bits t land 0x3ffffff in
  (* 26 bits *)
  let lo = bits t land 0x7ffffff in
  (* 27 bits *)
  let f = (float_of_int hi *. 134217728.0 +. float_of_int lo) /. 9007199254740992.0 in
  f *. x

let uniform t = float t 1.0

let exponential t mean =
  let u = ref (uniform t) in
  while !u = 0.0 do
    u := uniform t
  done;
  -.mean *. log !u

let pareto t ~shape ~scale =
  let u = ref (uniform t) in
  while !u = 0.0 do
    u := uniform t
  done;
  scale /. (!u ** (1.0 /. shape))

let bytes t n =
  let b = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.set b i (Char.chr (int t 256))
  done;
  Bytes.unsafe_to_string b

let choose t arr =
  if Array.length arr = 0 then invalid_arg "Rng.choose: empty array";
  arr.(int t (Array.length arr))

let choose_weighted t items =
  (* items: (weight, value) list with positive total weight. *)
  let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 items in
  if total <= 0.0 then invalid_arg "Rng.choose_weighted: nonpositive weight";
  let x = float t total in
  let rec go acc = function
    | [] -> invalid_arg "Rng.choose_weighted: empty list"
    | [ (_, v) ] -> v
    | (w, v) :: rest -> if x < acc +. w then v else go (acc +. w) rest
  in
  go 0.0 items

let split t =
  (* Derive an independent stream; the constant decorrelates the child. *)
  create (Int64.to_int (next_int64 t))
