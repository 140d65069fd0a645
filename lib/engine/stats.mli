(** Measurement helpers: summary statistics over samples. *)

(** Accumulates float samples; exposes count/mean/min/max/stddev and
    percentiles. *)
module Summary : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  val min : t -> float
  val max : t -> float
  val stddev : t -> float

  val percentile : t -> float -> float
  (** [percentile s p] with [p] clamped to \[0, 1\]: the value at rank
      [p * (count - 1)], linearly interpolated between the two adjacent
      sorted samples. [percentile s 0.5] is the median.

      @raise Invalid_argument on an empty summary — callers must check
      {!count} first (histogram dumps do). *)

  val total : t -> float
end

(** A labelled (x, y) series, as produced for each curve of a figure. *)
module Series : sig
  type t = { label : string; points : (float * float) list }

  val make : string -> (float * float) list -> t
  val pp_row : Format.formatter -> float * float -> unit
  val pp : Format.formatter -> t -> unit

  val y_at : t -> float -> float
  (** Y value at the x closest to the argument. Raises on empty series. *)

  val max_y : t -> float
  val min_y : t -> float
end
