(** CRC-32 as used by AAL5 (the IEEE 802.3 polynomial 0x04C11DB7, reflected
    implementation). Slicing-by-8: eight 256-entry tables built at module
    initialisation fold 8 bytes per step on native ints (two 32-bit loads,
    eight lookups), with a byte-at-a-time tail. *)

val digest : ?crc:int32 -> bytes -> pos:int -> len:int -> int32
(** [digest b ~pos ~len] is the CRC of the byte range; [?crc] continues a
    running computation (pass a previous result to chain ranges). *)

val digest_bytes : bytes -> int32
(** CRC over a whole buffer. [digest_bytes "123456789" = 0xCBF43926l]. *)

val digest_buf : ?crc:int32 -> Engine.Buf.t -> int32
(** CRC over every span of a slice in order, without materializing it;
    equals [digest_bytes] of the equivalent contiguous buffer. *)
