include Stdx.Jsonx
