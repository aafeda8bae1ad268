(** Flow-key cache simulation over traces (Figure 11 + hash/associativity
    ablations). *)

type hash_kind = Crc32 | Modulo | Xor_fold

type side = Tfkc | Rfkc

type config = {
  sets : int;
  assoc : int;
  hash : hash_kind;
  side : side;
  threshold : float;
  fst_size : int;
  replacement : Fbsr_fbs.Cache.replacement;
}

val default_config : config

type result = {
  config : config;
  accesses : int;
  hits : int;
  misses_cold : int;
  misses_capacity : int;
  misses_conflict : int;
  miss_rate : float;
}

val run : ?config:config -> Record.t list -> result
val size_sweep : ?config:config -> sizes:int list -> Record.t list -> result list
