(** Single-file HTML report generation.

    Every builder returns an HTML fragment; {!page} assembles fragments
    into one self-contained document — inline CSS, inline SVG sparklines,
    a flamegraph rendered as positioned [<div>]s, no scripts and no
    external references of any kind, so the file renders identically from
    disk or an artifact store. *)

val escape : string -> string
(** HTML-escape text content and attribute values. *)

val section : title:string -> string -> string
(** Wrap a fragment under an [<h2>]. *)

val page : title:string -> string list -> string
(** The complete HTML document from ordered section fragments. *)

val write : path:string -> title:string -> string list -> unit

val sparkline : ?w:int -> ?h:int -> (float * float) list -> string
(** An inline-SVG polyline over (x, y) points, normalized to the box. *)

val downsample : int -> 'a list -> 'a list
(** Evenly stride a list down to at most [target] elements (keeps the
    last element). *)

val checks_table : (string * bool) list -> string
(** PASS/FAIL table for experiment checks. *)

val curves_html : (string * (float * float) list) list -> string
(** Labelled sparklines with point-count/min/max captions (figure
    curves). *)

(** {2 Sections built from the telemetry registries} *)

val breakdown_section : unit -> string
(** Per-phase span attribution (the measured Table 2), from [Span]. *)

val timeseries_section : unit -> string
(** One sparkline per sampled probe series, from [Timeseries]. *)

val flamegraph_html : fmt:(int -> string) -> (string list * int) list -> string
(** Icicle flamegraph divs from folded stacks; [fmt] renders a node's
    inclusive value for the hover title. *)

val profile_section : unit -> string
(** Per-host icicle flamegraph over the virtual clock's [Profile.stacks]. *)

val engine_section : unit -> string
(** Wall-clock self-profile: [Profile]'s wall flamegraph, event-queue depth
    sparkline and queue lifecycle/pop-cost figures. *)

val sketch_section : unit -> string
(** Message-latency quantiles (p50/p99/p99.9/max) from the
    [message_latency_ns] sketch fed by [Span.observe_latency]. *)

val metrics_section : unit -> string
(** The full metrics registry as a table. *)
