(** The experiment registry: every table and figure of the paper's
    evaluation, runnable by name from the CLI, the bench harness and the
    test suite. *)

(** Everything one execution of an experiment yields. [run] executes the
    experiment exactly once; printing, check evaluation and curve extraction
    all read the same result, so the CLI can print a table, verify the
    paper's claims and snapshot the curves without re-running the
    simulation (which would also re-run its side effects on the span,
    trace and pcap stores). *)
type outcome = {
  o_print : unit -> unit;  (** print the table/series to stdout *)
  o_checks : (string * bool) list;
      (** the paper's qualitative claims, evaluated *)
  o_series : (string * (float * float) list) list;
      (** the figure's curves as (label, points) — empty for tables *)
  o_members : (string * (float * Engine.Benchgate.gate)) list;
      (** extra top-level snapshot members with direction-aware benchdiff
          gates (engine-throughput and fabric declare them); empty
          for experiments whose snapshot is fully covered by the global
          tolerance *)
  o_sections : string list;
      (** experiment-specific HTML report fragments (e.g. the fabric's
          congestion atlas), appended after the checks and curves *)
}

type experiment = {
  name : string;
  description : string;
  run : quick:bool -> outcome;
}

val all : experiment list
val find : string -> experiment option
val names : string list

val report_sections : experiment -> outcome -> string list
(** HTML fragments (via [Engine.Report]) describing one execution:
    description, checks table, and the figure's curves when present. *)
