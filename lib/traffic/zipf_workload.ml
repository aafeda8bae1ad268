(* Zipf-popularity job stream.  See zipf_workload.mli. *)

(* 60000 usable source ports per destination port keeps both sides
   inside the dynamic range. *)
let src_ports = 60000
let dst_ports = 60000

type t = {
  zipf : Zipf.t;
  src : Fbsr_fbs.Principal.t;
  dst : Fbsr_fbs.Principal.t;
  payload : string;
  seen : Bytes.t; (* bitset over ranks *)
  mutable drawn : int;
  mutable touched : int;
}

let create ?(seed = 7) ?(payload = String.make 256 'z') ~flows ~src ~dst () =
  if flows > src_ports * dst_ports then
    invalid_arg "Zipf_workload.create: flows exceed the port-pair space";
  {
    zipf = Zipf.create ~n:flows (Fbsr_util.Rng.create seed);
    src;
    dst;
    payload;
    seen = Bytes.make ((flows + 7) / 8) '\000';
    drawn = 0;
    touched = 0;
  }

let touched t = t.touched

let attrs_of_rank t rank =
  Fbsr_fbs.Fam.attrs ~protocol:17
    ~src_port:(1024 + (rank mod src_ports))
    ~dst_port:(1024 + (rank / src_ports))
    ~size:(String.length t.payload) ~src:t.src ~dst:t.dst ()

let batch t k =
  Array.init k (fun _ ->
      let rank = Zipf.sample t.zipf in
      let byte = rank lsr 3 and bit = 1 lsl (rank land 7) in
      let b = Char.code (Bytes.get t.seen byte) in
      if b land bit = 0 then begin
        Bytes.set t.seen byte (Char.chr (b lor bit));
        t.touched <- t.touched + 1
      end;
      t.drawn <- t.drawn + 1;
      (attrs_of_rank t rank, t.payload))
