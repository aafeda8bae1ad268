(* Small statistics toolkit used by the flow-characteristic experiments
   (Figures 9-14): summaries, histograms, CDFs and time series binning. *)

type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  total : float;
}

let summary xs =
  let n = Array.length xs in
  if n = 0 then { count = 0; mean = 0.; stddev = 0.; min = 0.; max = 0.; total = 0. }
  else begin
    let total = Array.fold_left ( +. ) 0.0 xs in
    let mean = total /. float_of_int n in
    let var =
      Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 xs
      /. float_of_int n
    in
    let mn = Array.fold_left min xs.(0) xs in
    let mx = Array.fold_left max xs.(0) xs in
    { count = n; mean; stddev = sqrt var; min = mn; max = mx; total }
  end

let percentile xs p =
  (* Nearest-rank percentile on a copy; p in [0,100]. *)
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: empty data";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
  sorted.(max 0 (min (n - 1) (rank - 1)))

let median xs = percentile xs 50.0

(* Cumulative distribution: sorted (value, fraction <= value) points,
   deduplicated on value. *)
let cdf xs =
  let n = Array.length xs in
  if n = 0 then []
  else begin
    let sorted = Array.copy xs in
    Array.sort compare sorted;
    let points = ref [] in
    for i = n - 1 downto 0 do
      let frac = float_of_int (i + 1) /. float_of_int n in
      match !points with
      | (v, _) :: _ when v = sorted.(i) -> ()
      | _ -> points := (sorted.(i), frac) :: !points
    done;
    !points
  end

(* Logarithmic histogram: buckets [base^k, base^{k+1}). *)
type log_histogram = {
  base : float;
  buckets : (float * float * int) list; (* lo, hi, count *)
}

let log_histogram ?(base = 2.0) xs =
  if base <= 1.0 then invalid_arg "Stats.log_histogram: base must exceed 1";
  let tbl = Hashtbl.create 32 in
  Array.iter
    (fun x ->
      let k =
        if x <= 0.0 then min_int
        else int_of_float (floor (log x /. log base +. 1e-9))
      in
      Hashtbl.replace tbl k (1 + try Hashtbl.find tbl k with Not_found -> 0))
    xs;
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] in
  let keys = List.sort compare keys in
  let buckets =
    List.map
      (fun k ->
        let lo = if k = min_int then 0.0 else base ** float_of_int k in
        let hi = if k = min_int then 1.0 else base ** float_of_int (k + 1) in
        (lo, hi, Hashtbl.find tbl k))
      keys
  in
  { base; buckets }

(* Time series binning: given (time, value) events, count or sum per bin. *)
let bin_count ~bin ~t_end events =
  if bin <= 0.0 then invalid_arg "Stats.bin_count: bin must be positive";
  let n = int_of_float (ceil (t_end /. bin)) in
  let bins = Array.make (max n 1) 0 in
  List.iter
    (fun t ->
      if t >= 0.0 && t < t_end then begin
        let i = int_of_float (t /. bin) in
        if i >= 0 && i < Array.length bins then bins.(i) <- bins.(i) + 1
      end)
    events;
  bins

(* Render helpers for the experiment harness. *)
