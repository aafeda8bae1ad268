(* Zipf sampler: precomputed CDF + binary search.  See zipf.mli. *)

type t = { n : int; s : float; rng : Fbsr_util.Rng.t; cdf : float array }

let create ?(s = 1.0) ~n rng =
  if n < 1 then invalid_arg "Zipf.create: n < 1";
  if s < 0.0 then invalid_arg "Zipf.create: s < 0";
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (1.0 /. Float.of_int (i + 1) ** s);
    cdf.(i) <- !acc
  done;
  let total = !acc in
  for i = 0 to n - 1 do
    cdf.(i) <- cdf.(i) /. total
  done;
  (* Guard against rounding leaving the last bucket unreachable. *)
  cdf.(n - 1) <- 1.0;
  { n; s; rng; cdf }

let sample t =
  let u = Fbsr_util.Rng.uniform t.rng in
  (* Smallest rank whose cumulative mass covers u. *)
  let lo = ref 0 and hi = ref (t.n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

let mass t i =
  if i < 0 || i >= t.n then invalid_arg "Zipf.mass: rank out of range";
  t.cdf.(i) -. (if i = 0 then 0.0 else t.cdf.(i - 1))
