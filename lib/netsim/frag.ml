(* IPv4 fragmentation and reassembly.

   FBS interacts with fragmentation in a specific way the paper leans on:
   the FBS send hook runs *before* fragmentation and the receive hook runs
   *after* reassembly, so FBS sees whole datagrams and gets fragmentation
   "for free".  The tcp_output MSS fix exists precisely because inserting
   the FBS header can push a maximally-sized segment over the MTU. *)

exception Cannot_fragment

(* Split an IP payload into fragments that fit [mtu].  Offsets are in
   8-byte units, so every non-final fragment carries a multiple of 8 bytes. *)
let fragment (h : Ipv4.header) (payload : string) ~mtu : (Ipv4.header * string) list =
  let max_data = mtu - Ipv4.header_size in
  if max_data <= 0 then invalid_arg "Frag.fragment: MTU too small";
  if String.length payload + Ipv4.header_size <= mtu then [ (h, payload) ]
  else if h.dont_fragment then raise Cannot_fragment
  else begin
    let chunk = max_data land lnot 7 in
    if chunk <= 0 then invalid_arg "Frag.fragment: MTU too small to fragment";
    let total = String.length payload in
    let rec go off acc =
      if off >= total then List.rev acc
      else begin
        let len = min chunk (total - off) in
        let more = off + len < total in
        let fh =
          {
            h with
            Ipv4.total_length = Ipv4.header_size + len;
            more_fragments = more || h.more_fragments;
            frag_offset = h.frag_offset + (off / 8);
          }
        in
        go (off + len) ((fh, String.sub payload off len) :: acc)
      end
    in
    go 0 []
  end

(* Reassembly keyed by (src, dst, protocol, ident), with a timeout after
   which partial state is discarded (as ip_input does).  The deadline is
   set by an entry's first fragment and never moves, as 4.4BSD's
   [ipq_ttl]: a stream of duplicates cannot keep an entry alive.  Entries
   time out in deadline order when a fragment arrives; an unfragmented
   datagram touches no table. *)

type key = int * int * int * int

type hole = { first : int; last : int } (* byte range, inclusive *)

type entry = {
  mutable fragments : (int * string) list; (* offset bytes, data *)
  mutable holes : hole list;
  mutable total_known : bool;
}

type t = {
  table : (key, entry) Fbsr_util.Pending.t;
  timeout : float;
}

let create ?(timeout = 30.0) () = { table = Fbsr_util.Pending.create (); timeout }

let key_of (h : Ipv4.header) : key =
  (Addr.to_int h.src, Addr.to_int h.dst, h.protocol, h.ident)

let max_datagram = 65535

(* Classic hole-descriptor algorithm (RFC 815, simplified): the new
   fragment punches its byte range out of every overlapping hole, and a
   final fragment (MF clear) additionally truncates holes beyond the end
   of the datagram. *)
let insert_fragment entry ~off ~len ~more =
  let last = off + len - 1 in
  let punched =
    List.concat_map
      (fun hole ->
        if off > hole.last || last < hole.first then [ hole ]
        else begin
          let before =
            if off > hole.first then [ { first = hole.first; last = off - 1 } ] else []
          in
          let after =
            if last < hole.last then [ { first = last + 1; last = hole.last } ] else []
          in
          before @ after
        end)
      entry.holes
  in
  let trimmed =
    if not more then begin
      entry.total_known <- true;
      List.filter (fun h -> h.first <= last) punched
    end
    else punched
  in
  entry.holes <- trimmed

let add t ~now (h : Ipv4.header) (data : string) : (Ipv4.header * string) option =
  if (not h.more_fragments) && h.frag_offset = 0 then
    (* Unfragmented: fast path. *)
    Some (h, data)
  else begin
    Fbsr_util.Pending.expire t.table ~now;
    let k = key_of h in
    let entry =
      match Fbsr_util.Pending.find t.table k with
      | Some e -> e
      | None ->
          let e =
            {
              fragments = [];
              holes = [ { first = 0; last = max_datagram } ];
              total_known = false;
            }
          in
          Fbsr_util.Pending.add t.table ~deadline:(now +. t.timeout) k e;
          e
    in
    let off = h.frag_offset * 8 in
    let len = String.length data in
    if len > 0 then begin
      let holes = entry.holes and total_known = entry.total_known in
      insert_fragment entry ~off ~len ~more:h.more_fragments;
      (* A duplicate changes neither: storing it would only grow the
         entry. *)
      if entry.holes <> holes || entry.total_known <> total_known then
        entry.fragments <- (off, data) :: entry.fragments
    end;
    if entry.holes = [] && entry.total_known then begin
      ignore (Fbsr_util.Pending.remove t.table k);
      (* Stitch fragments together; later arrivals win on overlap, matching
         BSD behaviour closely enough for our purposes. *)
      let total =
        List.fold_left (fun acc (off, d) -> max acc (off + String.length d)) 0
          entry.fragments
      in
      let buf = Bytes.make total '\000' in
      List.iter
        (fun (off, d) -> Bytes.blit_string d 0 buf off (String.length d))
        (List.rev entry.fragments);
      let payload = Bytes.unsafe_to_string buf in
      let rh =
        {
          h with
          Ipv4.more_fragments = false;
          frag_offset = 0;
          total_length = Ipv4.header_size + total;
        }
      in
      Some (rh, payload)
    end
    else None
  end

let pending t = Fbsr_util.Pending.length t.table
